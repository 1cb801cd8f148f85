package harness

import (
	"encoding/json"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// covFuzzTestBudget keeps the comparison meaningful (hundreds of frames
// per engine) while staying cheap enough for every `go test` run.
const covFuzzTestBudget = time.Hour

func TestCovFuzzTableCoverageGuidedMatchesGenerational(t *testing.T) {
	tbl, rows, err := CovFuzzTable(covFuzzTestBudget, fleet.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		// The acceptance bar: at an equal frame budget the coverage-guided
		// engine discovers at least the generational engine's distinct
		// vulnerability classes.
		if r.CovKinds < r.GenKinds {
			t.Errorf("%s: coverage-guided found %d discovery classes, generational %d\n%s",
				r.Index, r.CovKinds, r.GenKinds, tbl)
		}
		if r.CovVulns == 0 {
			t.Errorf("%s: coverage-guided found nothing", r.Index)
		}
		if r.CovCorpus == 0 || r.CovFeatures == 0 {
			t.Errorf("%s: empty corpus (%d) or coverage map (%d)", r.Index, r.CovCorpus, r.CovFeatures)
		}
		if r.GenFirst > 0 && r.CovFirst > 0 && r.CovFirst > r.GenFirst {
			// Both engines share the quick pass, so the first discovery
			// cannot come later for the coverage-guided engine.
			t.Errorf("%s: first discovery at frame %d (coverage) vs %d (generational)",
				r.Index, r.CovFirst, r.GenFirst)
		}
	}
}

func TestCovFuzzTableDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		tbl, _, err := CovFuzzTable(covFuzzTestBudget, fleet.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String()
	}
	if one, eight := render(1), render(8); one != eight {
		t.Fatalf("table differs between 1 and 8 workers:\n%s\n%s", one, eight)
	}
}

func TestCovFuzzTableResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := fleet.Config{Workers: 2, Checkpoint: &fleet.CheckpointSpec{Dir: dir}}
	tbl1, _, err := CovFuzzTable(covFuzzTestBudget, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Re-running against the journal must replay every outcome — including
	// the coverage-guided ones — and render the identical table.
	cfg.Checkpoint.Resume = true
	tbl2, _, err := CovFuzzTable(covFuzzTestBudget, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl1.String() != tbl2.String() {
		t.Fatalf("resumed table differs:\n%s\n%s", tbl1, tbl2)
	}
}

// covJob is the coverage-guided campaign the corpus tests run.
var covJob = fleet.Job{Device: "D1", Strategy: fuzz.StrategyFull, FuzzMode: fleet.ModeCoverage,
	Budget: 30 * time.Minute, Seed: 41}

func TestRunCovFuzzCorpusJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	run := func(resume bool) []byte {
		tb, err := testbed.New("D1", 41)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(tb, covJob, Options{CorpusDir: dir, ResumeCorpus: resume})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(out.CovFuzz)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := run(false)
	second := run(true) // killed campaign restarted: replays the corpus
	if string(first) != string(second) {
		t.Fatalf("campaign diverged after corpus-journal restart:\n%s\n%s", first, second)
	}

	// Without -resume the journal must be refused, not overwritten.
	tb, err := testbed.New("D1", 41)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(tb, covJob, Options{CorpusDir: dir}); err == nil {
		t.Fatal("existing corpus journal silently reused without resume")
	}
}

func TestRunCovFuzzMinimizerIsPureObserver(t *testing.T) {
	// The minimizer probes fresh testbeds, never the campaign's: enabling
	// it must not change what the campaign finds — only (possibly) shrink
	// stored seed payloads. The engine's quick pass happens to produce
	// already-minimal triggers, so reduction itself is exercised by the
	// corpus package's tests; here we pin the purity contract.
	run := func(min bool) ([]byte, int) {
		tb, err := testbed.New("D1", 41)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(tb, covJob, Options{Minimize: min})
		if err != nil {
			t.Fatal(err)
		}
		res := out.CovFuzz
		b, err := json.Marshal(res.Findings)
		if err != nil {
			t.Fatal(err)
		}
		return b, res.SeedsMinimized
	}
	plain, n0 := run(false)
	minimized, _ := run(true)
	if n0 != 0 {
		t.Fatalf("minimizer disabled but %d seeds reduced", n0)
	}
	if string(plain) != string(minimized) {
		t.Fatalf("minimizer changed campaign findings:\n%s\n%s", plain, minimized)
	}
}
