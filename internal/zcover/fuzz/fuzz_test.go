package fuzz

import (
	"testing"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/oracle"
	"zcover/internal/protocol"
	"zcover/internal/testbed"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// newEngine builds an engine wired to a fresh testbed, with the queue
// restricted to the given classes.
func newEngine(t *testing.T, index string, classes []cmdclass.ClassID, cfg Config) (*Engine, *testbed.Testbed) {
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
	eng, err := New(d, fp, queue, mut, StrategyFull, index, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.Bus.Subscribe(eng.Observe)
	return eng, tb
}

func TestEngineFindsHangBugInOneClass(t *testing.T) {
	eng, _ := newEngine(t, "D1", []cmdclass.ClassID{cmdclass.ClassVersion}, Config{
		Duration: 10 * time.Minute,
	})
	res := eng.Run()
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %d: %+v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if f.Event.Kind != oracle.ServiceHang || f.Event.Class != 0x86 || f.Event.Cmd != 0x13 {
		t.Fatalf("finding = %+v", f.Event)
	}
	if len(f.TriggerPayload) < 3 || f.TriggerPayload[0] != 0x86 || f.TriggerPayload[1] != 0x13 {
		t.Fatalf("trigger payload % X", f.TriggerPayload)
	}
}

func TestEngineDoesNotRepeatCrashCommands(t *testing.T) {
	eng, _ := newEngine(t, "D1", []cmdclass.ClassID{cmdclass.ClassDeviceResetLocal}, Config{
		Duration: 30 * time.Minute,
	})
	res := eng.Run()
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %d", len(res.Findings))
	}
	// Re-triggering the 68 s hang would flood duplicates; the engine's
	// crash filter must keep them near zero.
	if res.Duplicates > 2 {
		t.Fatalf("duplicates = %d, want <= 2", res.Duplicates)
	}
}

func TestEngineMemoryBugsDoNotStopCampaign(t *testing.T) {
	eng, tb := newEngine(t, "D2", []cmdclass.ClassID{cmdclass.ClassZWaveProtocol}, Config{
		Duration: 45 * time.Minute,
	})
	res := eng.Run()
	sigs := map[string]bool{}
	for _, f := range res.Findings {
		sigs[f.Signature] = true
	}
	for _, want := range []string{
		"node-removed/0x01/0x0D",
		"database-overwritten/0x01/0x0D",
		"wakeup-cleared/0x01/0x0D",
		"rogue-node-added/0x01/0x0D",
		"node-tampered/0x01/0x0D",
		"service-hang/0x01/0x04",
	} {
		if !sigs[want] {
			t.Errorf("missing finding %s (got %v)", want, res.Findings)
		}
	}
	// The attack left visible damage in the controller's memory.
	if tb.Controller.Table().Len() == 3 {
		t.Error("node table untouched after memory-tampering campaign")
	}
}

func TestEngineRespectsDuration(t *testing.T) {
	eng, _ := newEngine(t, "D3", []cmdclass.ClassID{cmdclass.ClassBasic}, Config{
		Duration: 2 * time.Minute,
	})
	res := eng.Run()
	if res.Elapsed < 2*time.Minute || res.Elapsed > 3*time.Minute {
		t.Fatalf("elapsed = %s, want ~2m", res.Elapsed)
	}
	if res.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
}

func TestEngineTimelineMonotonic(t *testing.T) {
	eng, _ := newEngine(t, "D1", []cmdclass.ClassID{cmdclass.ClassVersion, cmdclass.ClassBasic}, Config{
		Duration: 10 * time.Minute,
	})
	res := eng.Run()
	if len(res.Timeline) < 3 {
		t.Fatalf("timeline has %d samples", len(res.Timeline))
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Packets < res.Timeline[i-1].Packets && res.Timeline[i].Elapsed > res.Timeline[i-1].Elapsed {
			t.Fatalf("timeline not monotonic at %d: %+v", i, res.Timeline[i-1:i+1])
		}
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.Packets != res.PacketsSent {
		t.Fatalf("final sample packets=%d, result=%d", last.Packets, res.PacketsSent)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(nil, scan.Fingerprint{}, nil, nil, StrategyFull, "D1", Config{}); err == nil {
		t.Fatal("New accepted nil dongle/mutator")
	}
	tb, err := testbed.New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := dongle.New(tb.Medium, tb.Region)
	mut := mutate.New(mutate.Semantics{}, 1)
	if _, err := New(d, scan.Fingerprint{}, nil, mut, StrategyFull, "D1", Config{Duration: time.Hour}); err == nil {
		t.Fatal("New accepted an empty queue")
	}
	// A non-positive budget is an error, not a silent 24 h campaign.
	queue := []*cmdclass.Class{cmdclass.MustLoad().ControllerCluster()[0]}
	for _, budget := range []time.Duration{0, -time.Hour} {
		if _, err := New(d, scan.Fingerprint{}, queue, mut, StrategyFull, "D1", Config{Duration: budget}); err == nil {
			t.Errorf("New accepted budget %s", budget)
		}
	}
}

func TestBuildQueueShapes(t *testing.T) {
	reg := cmdclass.MustLoad()
	listed := reg.ControllerCluster()[:5]
	prioritized := reg.ControllerCluster()

	if q := BuildQueue(StrategyKnownOnly, reg, listed, prioritized, 1); len(q) != 5 {
		t.Fatalf("beta queue = %d classes", len(q))
	}
	if q := BuildQueue(StrategyRandom, reg, listed, prioritized, 1); len(q) != 256 {
		t.Fatalf("gamma queue = %d classes", len(q))
	}
	if q := BuildQueue(StrategyFull, reg, listed, prioritized, 1); len(q) != len(prioritized) {
		t.Fatalf("full queue = %d classes", len(q))
	}
}

func TestOnFindingHookStreamsLive(t *testing.T) {
	eng, _ := newEngine(t, "D1", []cmdclass.ClassID{cmdclass.ClassVersion}, Config{
		Duration:  10 * time.Minute,
		OnFinding: nil,
	})
	_ = eng
	var streamed []string
	eng2, _ := newEngine(t, "D1", []cmdclass.ClassID{cmdclass.ClassVersion}, Config{
		Duration:  10 * time.Minute,
		OnFinding: func(f Finding) { streamed = append(streamed, f.Signature) },
	})
	res := eng2.Run()
	if len(streamed) != len(res.Findings) {
		t.Fatalf("streamed %d, result has %d", len(streamed), len(res.Findings))
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{Findings: []Finding{{Signature: "a"}, {Signature: "b"}}}
	if res.UniqueVulnerabilities() != 2 {
		t.Fatal("UniqueVulnerabilities wrong")
	}
	e := LogEntry{ElapsedSec: 90.5, Payload: "7a03"}
	if e.Elapsed() != 90500*time.Millisecond {
		t.Fatalf("Elapsed = %s", e.Elapsed())
	}
	p, err := e.TriggerPayload()
	if err != nil || len(p) != 2 || p[0] != 0x7A {
		t.Fatalf("payload = % X, %v", p, err)
	}
}

func TestMeasuredOutageMatchesModelDurations(t *testing.T) {
	// The engine's own liveness probes must measure the hang windows of
	// the vulnerability models to within the ping-retry granularity.
	eng, _ := newEngine(t, "D1", []cmdclass.ClassID{
		cmdclass.ClassDeviceResetLocal, // 68 s hang
		cmdclass.ClassVersion,          // 4 s hang
	}, Config{Duration: 20 * time.Minute})
	res := eng.Run()
	want := map[string]time.Duration{
		"service-hang/0x5A/0x01": 68 * time.Second,
		"service-hang/0x86/0x13": 4 * time.Second,
	}
	for _, f := range res.Findings {
		expected, ok := want[f.Signature]
		if !ok {
			continue
		}
		delete(want, f.Signature)
		// The response window consumes the first ~0.5 s of the hang before
		// measurement starts; ping retries add up to ~5 s at the end.
		if f.MeasuredOutage < expected-time.Second || f.MeasuredOutage > expected+6*time.Second {
			t.Errorf("%s: measured outage %s, model %s", f.Signature, f.MeasuredOutage, expected)
		}
	}
	if len(want) != 0 {
		t.Fatalf("findings missing: %v", want)
	}
}

func TestMemoryBugsHaveNoOutage(t *testing.T) {
	eng, _ := newEngine(t, "D2", []cmdclass.ClassID{cmdclass.ClassZWaveProtocol}, Config{
		Duration: 30 * time.Minute,
	})
	res := eng.Run()
	for _, f := range res.Findings {
		if f.Event.Kind.String() == "node-removed" && f.MeasuredOutage != 0 {
			t.Errorf("memory bug has measured outage %s", f.MeasuredOutage)
		}
	}
}
