package harness

import (
	"runtime"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/obs"
)

// TestTable5ByteIdenticalWithProfiling pins the ISSUE's determinism
// criterion: attaching the full observability stack — worker timeline plus
// runtime contention profiling — leaves Table V byte-identical to the bare
// run, at workers=1 and workers=8 alike. Profilers that feed back into
// campaign state would surface here first.
func TestTable5ByteIdenticalWithProfiling(t *testing.T) {
	bare, _, err := Table5(fleetTestBudget, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	restore := obs.StartProfiling(obs.ProfileConfig{MutexFraction: 1})
	defer restore()
	for _, workers := range []int{1, 8} {
		tl := obs.NewTimeline()
		profTbl, _, err := Table5(fleetTestBudget, fleet.Config{Workers: workers, Timeline: tl})
		if err != nil {
			t.Fatal(err)
		}
		if bare.String() != profTbl.String() {
			t.Errorf("Table V differs with profiling at workers=%d:\n--- bare ---\n%s\n--- profiled ---\n%s",
				workers, bare.String(), profTbl.String())
		}
		// The timeline must actually have recorded the run: one lane per
		// effective worker, with busy time in the pipeline phases.
		snap := tl.Snapshot()
		want := fleet.Config{Workers: workers}.EffectiveWorkers(10)
		if len(snap.Workers) != want {
			t.Errorf("workers=%d: %d timeline lanes, want %d", workers, len(snap.Workers), want)
		}
		if snap.PhaseWallSec[obs.PhaseFuzz] <= 0 {
			t.Errorf("workers=%d: no fuzz-phase wall time recorded: %v", workers, snap.PhaseWallSec)
		}
		if snap.PhaseWallSec[obs.PhaseScan] <= 0 {
			t.Errorf("workers=%d: no scan-phase wall time recorded: %v", workers, snap.PhaseWallSec)
		}
	}
}

// TestScalingSweepShort runs the real sweep at a tiny budget and checks
// the report is structurally complete: one point per requested worker
// count, derived efficiencies, phase attribution, and — on hosts where the
// sweep asks for more workers than GOMAXPROCS — a ranked bottleneck list.
func TestScalingSweepShort(t *testing.T) {
	rep, err := ScalingSweep(ScalingConfig{
		Workers: []int{1, 2}, Budget: 10 * time.Minute, GitSHA: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Host.Gomaxprocs != runtime.GOMAXPROCS(0) {
		t.Errorf("host stamp: %+v", rep.Host)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d, want 2: %+v", len(rep.Points), rep.Points)
	}
	base := rep.Points[0]
	if base.Workers != 1 || base.Speedup != 1 || base.SimRate <= 0 {
		t.Errorf("baseline point: %+v", base)
	}
	for _, p := range rep.Points {
		if p.SimSec <= 0 || p.WallSec <= 0 || len(p.Phases) == 0 {
			t.Errorf("incomplete point: %+v", p)
		}
		if p.IdealSpeedup < 1 {
			t.Errorf("IdealSpeedup %v at workers=%d", p.IdealSpeedup, p.Workers)
		}
	}
	if 2 > runtime.GOMAXPROCS(0) && len(rep.Bottlenecks) == 0 {
		t.Error("sweep beyond GOMAXPROCS ranked no bottlenecks")
	}
	for i, b := range rep.Bottlenecks {
		if b.Rank != i+1 || b.Kind == "" || b.Evidence == "" {
			t.Errorf("malformed bottleneck: %+v", b)
		}
	}
}
