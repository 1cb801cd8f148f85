package obs_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"zcover/internal/obs"
	"zcover/internal/telemetry"
)

// fakeClock is a deterministic timeline clock tests advance by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestTimelinePhaseAttribution(t *testing.T) {
	clk := newFakeClock()
	tl := obs.NewTimeline()
	tl.SetNow(clk.now)

	tl.StartWorker(0)
	clk.advance(2 * time.Second) // idle
	tl.Phase(0, "job-a", obs.PhaseBuild, time.Time{})
	clk.advance(1 * time.Second)
	tl.Phase(0, "job-a", obs.PhaseFuzz, time.Time{})
	clk.advance(5 * time.Second)
	tl.Phase(0, "", obs.PhaseIdle, time.Time{})
	clk.advance(3 * time.Second)
	tl.StopWorker(0)

	snap := tl.Snapshot()
	if len(snap.Workers) != 1 {
		t.Fatalf("workers = %d, want 1", len(snap.Workers))
	}
	ws := snap.Workers[0]
	if ws.IdleSec != 5 {
		t.Errorf("IdleSec = %v, want 5", ws.IdleSec)
	}
	if ws.BusySec != 6 {
		t.Errorf("BusySec = %v, want 6", ws.BusySec)
	}
	if ws.Jobs != 1 {
		t.Errorf("Jobs = %d, want 1", ws.Jobs)
	}
	if got := snap.PhaseWallSec[obs.PhaseFuzz]; got != 5 {
		t.Errorf("fuzz wall = %v, want 5", got)
	}
	if got := snap.PhaseWallSec[obs.PhaseBuild]; got != 1 {
		t.Errorf("build wall = %v, want 1", got)
	}
}

func TestTimelineSnapshotTruncatesInFlight(t *testing.T) {
	clk := newFakeClock()
	tl := obs.NewTimeline()
	tl.SetNow(clk.now)

	tl.StartWorker(3)
	tl.Phase(3, "j", obs.PhaseScan, time.Time{})
	clk.advance(4 * time.Second)

	snap := tl.Snapshot() // scan interval still open
	if got := snap.PhaseWallSec[obs.PhaseScan]; got != 4 {
		t.Errorf("open interval truncated at %vs, want 4", got)
	}
	// The snapshot must not have closed the live interval: advancing and
	// snapping again extends the same stretch.
	clk.advance(2 * time.Second)
	snap = tl.Snapshot()
	if got := snap.PhaseWallSec[obs.PhaseScan]; got != 6 {
		t.Errorf("after more time, scan wall = %v, want 6", got)
	}
}

// TestTimelineSimTimeTraceView: intervals stamped on a testbed's
// simulated clock come back from LastJob with their sim bounds, and
// SimSpans turns the pipeline phases among them into trace events, the
// aborting error on the phase it hit.
func TestTimelineSimTimeTraceView(t *testing.T) {
	clk := newFakeClock()
	tl := obs.NewTimeline()
	tl.SetNow(clk.now)
	sim := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

	tl.StartWorker(0)
	tl.Phase(0, "j", obs.PhaseBuild, time.Time{})
	tl.Phase(0, "j", obs.PhaseRun, sim)
	tl.Phase(0, "j", obs.PhaseScan, sim)
	tl.Phase(0, "j", obs.PhaseFuzz, sim.Add(2*time.Minute))
	clk.advance(time.Second)
	tl.EndRun(0, sim.Add(5*time.Minute), errors.New("boom"))
	tl.Phase(0, "j", obs.PhasePersist, time.Time{})
	tl.Phase(0, "", obs.PhaseIdle, time.Time{})

	ivs := tl.LastJob(0)
	var phases []string
	for _, iv := range ivs {
		phases = append(phases, iv.Phase)
	}
	if got := strings.Join(phases, ","); got != "build,run,scan,fuzz,persist" {
		t.Fatalf("LastJob phases = %s", got)
	}
	if fz := ivs[3]; fz.Dur() != time.Second || !fz.SimStart.Equal(sim.Add(2*time.Minute)) {
		t.Errorf("fuzz interval = %+v", fz)
	}
	if b := ivs[0]; !b.SimStart.IsZero() || !b.SimEnd.IsZero() {
		t.Errorf("build interval carries sim time: %+v", b)
	}
	want := []telemetry.TraceEvent{
		{Name: "scan", Kind: "phase", Start: sim, End: sim.Add(2 * time.Minute),
			Attrs: map[string]string{"job": "j"}},
		{Name: "fuzz", Kind: "phase", Start: sim.Add(2 * time.Minute), End: sim.Add(5 * time.Minute),
			Attrs: map[string]string{"job": "j", "error": "boom"}},
	}
	if got := obs.SimSpans(ivs); !reflect.DeepEqual(got, want) {
		t.Errorf("SimSpans = %+v\nwant %+v", got, want)
	}

	tl.Phase(0, "k", obs.PhaseBuild, time.Time{})
	tl.Phase(0, "", obs.PhaseIdle, time.Time{})
	if got := tl.LastJob(0); len(got) != 1 || got[0].Job != "k" {
		t.Errorf("LastJob after a second job = %+v, want k's build only", got)
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *obs.Timeline
	tl.StartWorker(0) // must not panic
	tl.Phase(0, "j", obs.PhaseFuzz, time.Time{})
	tl.EndRun(0, time.Time{}, errors.New("x"))
	tl.StopWorker(0)
	if ivs := tl.LastJob(0); ivs != nil {
		t.Errorf("nil timeline LastJob = %v", ivs)
	}
	tl.SetNow(time.Now)
	snap := tl.Snapshot()
	if len(snap.Workers) != 0 || !snap.Start.IsZero() {
		t.Errorf("nil timeline snapshot not empty: %+v", snap)
	}
	if err := snap.WriteJSON(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineSnapshotJSONRoundTrip(t *testing.T) {
	clk := newFakeClock()
	tl := obs.NewTimeline()
	tl.SetNow(clk.now)
	tl.StartWorker(0)
	tl.Phase(0, "job", obs.PhaseFuzz, time.Time{})
	clk.advance(time.Second)
	tl.StopWorker(0)

	var b strings.Builder
	if err := tl.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(back.Intervals) != 2 { // idle (zero-length) + fuzz
		t.Errorf("round-tripped %d intervals, want 2", len(back.Intervals))
	}
}

// TestTimelineRace hammers concurrent recording and snapshotting; the
// -race build of `make verify` is the assertion.
func TestTimelineRace(t *testing.T) {
	tl := obs.NewTimeline()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl.StartWorker(w)
			for i := 0; i < 200; i++ {
				tl.Phase(w, "j", obs.PhaseFuzz, time.Time{})
				tl.Phase(w, "", obs.PhaseIdle, time.Time{})
			}
			tl.StopWorker(w)
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = tl.Snapshot()
		}
	}()
	wg.Wait()
	if got := len(tl.Snapshot().Workers); got != 4 {
		t.Errorf("lanes = %d, want 4", got)
	}
}
