package fuzz

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/corpus"
	"zcover/internal/protocol"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// newCovEngine builds a coverage-guided engine on a fresh testbed with all
// three coverage hooks wired, mirroring newEngine.
func newCovEngine(t *testing.T, index string, classes []cmdclass.ClassID, cfg Config) (*CovEngine, *testbed.Testbed) {
	t.Helper()
	tb, err := testbed.New(index, 21)
	if err != nil {
		t.Fatal(err)
	}
	d := dongle.New(tb.Medium, tb.Region)
	fp := scan.Fingerprint{
		Home:       tb.Home(),
		Controller: testbed.ControllerID,
		Nodes:      []protocol.NodeID{0x01, 0x02, 0x03},
	}
	var queue []*cmdclass.Class
	for _, id := range classes {
		if cls, ok := cmdclass.MustLoad().Get(id); ok {
			queue = append(queue, cls)
			continue
		}
		cls, ok := cmdclass.HiddenClass(id)
		if !ok {
			t.Fatalf("class %s unknown", id)
		}
		queue = append(queue, cls)
	}
	mut := mutate.New(mutate.Semantics{Controller: fp.Controller, KnownNodes: fp.Nodes}, 21)
	eng, err := NewCov(d, fp, queue, mut, index, 21, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.Controller.SetCoverage(eng.Coverage())
	tb.Bus.SetCoverage(eng.Coverage())
	tb.Bus.Subscribe(eng.Observe)
	return eng, tb
}

func TestCovEngineFindsHangBugAndGrowsCorpus(t *testing.T) {
	eng, _ := newCovEngine(t, "D1", []cmdclass.ClassID{cmdclass.ClassVersion}, Config{
		Duration: 10 * time.Minute,
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %d: %+v", len(res.Findings), res.Findings)
	}
	if res.Findings[0].Signature != "service-hang/0x86/0x13" {
		t.Fatalf("finding = %s", res.Findings[0].Signature)
	}
	if res.CorpusSize == 0 {
		t.Fatal("no seeds admitted")
	}
	if res.Coverage.Features == 0 || res.Coverage.Density <= 0 {
		t.Fatalf("coverage empty: %+v", res.Coverage)
	}
	// The finding itself must have been admitted with its signature.
	var found bool
	for _, s := range eng.Corpus().Seeds() {
		if s.Signature == "service-hang/0x86/0x13" {
			found = true
		}
	}
	if !found {
		t.Fatal("finding seed not in corpus")
	}
}

func TestCovEngineIsDeterministic(t *testing.T) {
	run := func() []byte {
		eng, _ := newCovEngine(t, "D2", []cmdclass.ClassID{
			cmdclass.ClassZWaveProtocol, cmdclass.ClassBasic,
		}, Config{Duration: 20 * time.Minute})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical campaigns diverged:\n%s\n%s", a, b)
	}
}

func TestFrameBudgetCapsBothEngines(t *testing.T) {
	const budget = 40

	gen, _ := newEngine(t, "D3", []cmdclass.ClassID{cmdclass.ClassBasic}, Config{
		Duration: time.Hour, FrameBudget: budget,
	})
	if got := gen.Run().PacketsSent; got != budget {
		t.Fatalf("generational sent %d frames, want %d", got, budget)
	}

	cov, _ := newCovEngine(t, "D3", []cmdclass.ClassID{cmdclass.ClassBasic}, Config{
		Duration: time.Hour, FrameBudget: budget,
	})
	res, err := cov.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsSent > budget {
		t.Fatalf("coverage-guided sent %d frames, budget %d", res.PacketsSent, budget)
	}
}

func TestCovEngineResumesFromCorpusJournal(t *testing.T) {
	dir := t.TempDir()
	spec := map[string]any{"device": "D1", "seed": 21, "budget": "10m"}
	cfg := Config{Duration: 10 * time.Minute}
	classes := []cmdclass.ClassID{cmdclass.ClassVersion, cmdclass.ClassBasic}

	j, err := corpus.OpenJournal(dir, "covfuzz-D1", spec, false)
	if err != nil {
		t.Fatal(err)
	}
	eng1, _ := newCovEngine(t, "D1", classes, cfg)
	eng1.Corpus().AttachJournal(j)
	res1, err := eng1.Run()
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// "Kill" the campaign and start over against the persisted corpus: the
	// deterministic re-run must replay every admission byte-identically.
	j2, err := corpus.OpenJournal(dir, "covfuzz-D1", spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Replayed() != res1.CorpusSize {
		t.Fatalf("journal holds %d seeds, campaign admitted %d", j2.Replayed(), res1.CorpusSize)
	}
	eng2, _ := newCovEngine(t, "D1", classes, cfg)
	eng2.Corpus().AttachJournal(j2)
	res2, err := eng2.Run()
	if err != nil {
		t.Fatalf("replay validation failed: %v", err)
	}
	j2.Close()
	if res2.CorpusSize != res1.CorpusSize {
		t.Fatalf("resumed corpus = %d seeds, original = %d", res2.CorpusSize, res1.CorpusSize)
	}

	b1, _ := json.Marshal(res1)
	b2, _ := json.Marshal(res2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("resumed campaign result diverged:\n%s\n%s", b1, b2)
	}

	// A campaign over another queue diverges from the journal at its first
	// admission, in the quick pass, and fails rather than mix two corpora.
	j3, err := corpus.OpenJournal(dir, "covfuzz-D1", spec, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	eng3, _ := newCovEngine(t, "D1", classes[1:], cfg)
	eng3.Corpus().AttachJournal(j3)
	if _, err := eng3.Run(); err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("divergent campaign against the journal: err = %v", err)
	}
}

func TestCovEngineAttachesTracesToSeeds(t *testing.T) {
	eng, tb := newCovEngine(t, "D1", []cmdclass.ClassID{cmdclass.ClassVersion}, Config{
		Duration: 5 * time.Minute,
	})
	rec := telemetry.NewFlightRecorder(32)
	tb.Medium.SetFlightRecorder(rec)
	eng.cfg.Recorder = rec
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CorpusSize == 0 {
		t.Fatal("no seeds admitted")
	}
	for _, s := range eng.Corpus().Seeds() {
		if len(s.Trace) == 0 {
			t.Fatalf("seed %d admitted without a flight-recorder trace", s.ID)
		}
		if len(s.Trace) > 32 {
			t.Fatalf("seed %d trace unbounded: %d frames", s.ID, len(s.Trace))
		}
	}
}

func TestCovEngineCoverageExceedsQuickPassAlone(t *testing.T) {
	// The exploitation loop must add features beyond what the quick pass
	// alone reaches: run the same campaign at two budgets and require the
	// longer one to have strictly denser coverage.
	short, _ := newCovEngine(t, "D2", []cmdclass.ClassID{cmdclass.ClassZWaveProtocol}, Config{
		Duration: time.Hour, FrameBudget: 30,
	})
	rs, err := short.Run()
	if err != nil {
		t.Fatal(err)
	}
	long, _ := newCovEngine(t, "D2", []cmdclass.ClassID{cmdclass.ClassZWaveProtocol}, Config{
		Duration: time.Hour, FrameBudget: 600,
	})
	rl, err := long.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rl.Coverage.Features <= rs.Coverage.Features {
		t.Fatalf("600-frame coverage (%d features) not above 30-frame coverage (%d)",
			rl.Coverage.Features, rs.Coverage.Features)
	}
	if rl.Rounds == 0 {
		t.Fatal("no exploitation rounds ran")
	}
}
