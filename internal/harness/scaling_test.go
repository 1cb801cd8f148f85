package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/obs"
)

// TestTable5ByteIdenticalWithTimeline pins the determinism criterion for
// the observability stack: attaching a worker timeline leaves Table V
// byte-identical to the bare run, at workers=1 and workers=8 alike. A
// recorder that fed back into campaign state would surface here first.
func TestTable5ByteIdenticalWithTimeline(t *testing.T) {
	bare, _, err := Table5(fleetTestBudget, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		tl := obs.NewTimeline()
		tlTbl, _, err := Table5(fleetTestBudget, fleet.Config{Workers: workers, Timeline: tl})
		if err != nil {
			t.Fatal(err)
		}
		if bare.String() != tlTbl.String() {
			t.Errorf("Table V differs with a timeline at workers=%d:\n--- bare ---\n%s\n--- timeline ---\n%s",
				workers, bare.String(), tlTbl.String())
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

// withGomaxprocs sets GOMAXPROCS for the rest of the test.
func withGomaxprocs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestScalingSweepShort runs the real sweep at a tiny budget and checks
// the report is complete: a workers=1 and a workers=2 point with equal
// simulated time, positive readings, and the workers=2 ratios the gate
// reads. GOMAXPROCS is 2 for the test, so it runs on any host.
func TestScalingSweepShort(t *testing.T) {
	withGomaxprocs(t, 2)
	rep, err := ScalingSweep(ScalingConfig{Budget: time.Minute, GitSHA: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Host.Gomaxprocs != 2 || rep.Host.GitSHA != "test" {
		t.Errorf("host stamp: %+v", rep.Host)
	}
	if len(rep.Points) != 2 || rep.Points[0].Workers != 1 || rep.Points[1].Workers != 2 {
		t.Fatalf("points: %+v, want workers=1 and workers=2", rep.Points)
	}
	for _, p := range rep.Points {
		if p.SimSec <= 0 || p.WallSec <= 0 || p.CPUSec <= 0 || p.SimRate <= 0 {
			t.Errorf("incomplete point: %+v", p)
		}
	}
	if rep.Points[0].SimSec != rep.Points[1].SimSec {
		t.Errorf("simulated seconds differ: %v vs %v", rep.Points[0].SimSec, rep.Points[1].SimSec)
	}
	if two := rep.Points[1]; two.Speedup <= 0 || two.CPUInflation <= 0 {
		t.Errorf("workers=2 point lacks its ratios: %+v", two)
	}
	if !strings.Contains(rep.Campaign, "14 jobs") {
		t.Errorf("campaign = %q", rep.Campaign)
	}
}

// TestScalingSweepNeedsTwoProcs: at GOMAXPROCS=1 the fleet would cap the
// workers=2 point to one worker, so the sweep refuses to run and says why.
func TestScalingSweepNeedsTwoProcs(t *testing.T) {
	withGomaxprocs(t, 1)
	_, err := ScalingSweep(ScalingConfig{Budget: time.Minute})
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS >= 2") || !strings.Contains(err.Error(), "one worker") {
		t.Errorf("sweep at GOMAXPROCS=1: %v, want a refusal naming the cap", err)
	}
}
