package fleet_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/obs"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
)

func TestEffectiveWorkersCapsAtGomaxprocs(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	cases := []struct {
		cfg  fleet.Config
		jobs int
		want int
	}{
		{fleet.Config{Workers: 1}, 14, 1},
		{fleet.Config{Workers: p + 7}, 14, min(p, 14)},
		{fleet.Config{Workers: 8}, 3, min(p, 3)},
		{fleet.Config{}, 14, min(p, 14)},
		{fleet.Config{Workers: 5}, 0, 1},
	}
	for _, c := range cases {
		if got := c.cfg.EffectiveWorkers(c.jobs); got != c.want {
			t.Errorf("EffectiveWorkers(%d) with %+v = %d, want %d", c.jobs, c.cfg, got, c.want)
		}
	}
}

// TestFleetRecordsTimeline runs a real fleet with a timeline attached and
// checks the fleet-level phase attribution: build and persist phases from
// the fleet itself, run for a runner that never reports pipeline phases,
// and per-lane job counts covering all jobs.
func TestFleetRecordsTimeline(t *testing.T) {
	jobs := []fleet.Job{
		zcoverJob("a", "D1", 1),
		zcoverJob("b", "D2", 2),
		zcoverJob("c", "D3", 3),
	}
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (string, error) {
		time.Sleep(time.Millisecond)
		return job.Name, nil
	}
	tl := obs.NewTimeline()
	var persisted int
	f := fleet.New(jobs, runner, fleet.Config{Workers: 1, Timeline: tl}).
		WithResume(func(i int, job fleet.Job, res fleet.Result[string]) error { persisted++; return nil })
	if err := fleet.FirstError(f.Run()); err != nil {
		t.Fatal(err)
	}
	if persisted != len(jobs) {
		t.Fatalf("persisted %d jobs, want %d", persisted, len(jobs))
	}
	snap := tl.Snapshot()
	if len(snap.Workers) != 1 {
		t.Fatalf("lanes = %d, want 1", len(snap.Workers))
	}
	if snap.Workers[0].Jobs != len(jobs) {
		t.Errorf("lane saw %d jobs, want %d", snap.Workers[0].Jobs, len(jobs))
	}
	for _, phase := range []string{obs.PhaseBuild, obs.PhaseRun, obs.PhasePersist} {
		if _, ok := snap.PhaseWallSec[phase]; !ok {
			t.Errorf("phase %q missing from attribution: %v", phase, snap.PhaseWallSec)
		}
	}
	if snap.PhaseWallSec[obs.PhaseRun] <= 0 {
		t.Errorf("run phase wall = %v, want > 0", snap.PhaseWallSec[obs.PhaseRun])
	}
}

// TestFleetNilTimeline pins that the default (no timeline) path still works
// with the phase hooks in place.
func TestFleetNilTimeline(t *testing.T) {
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		obs.Phase("fuzz") // must be a no-op, not a panic
		return 7, nil
	}
	results := fleet.Run([]fleet.Job{zcoverJob("a", "D1", 1)}, runner, fleet.Config{Workers: 1})
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	if results[0].Value != 7 {
		t.Fatalf("value = %d", results[0].Value)
	}
}

// TestFleetTraceIsATimelineView: a Tracer without a Timeline gets a
// private one, and each finished job is written as its wall-clock span
// followed by every attempt's pipeline phases on the testbed's simulated
// clock, a failed attempt's last phase carrying its error.
func TestFleetTraceIsATimelineView(t *testing.T) {
	attempts := 0
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		attempts++
		obs.Phase("scan")
		tb.Clock.Advance(time.Minute)
		if attempts == 1 {
			return 0, errors.New("dead channel")
		}
		obs.Phase("fuzz")
		tb.Clock.Advance(2 * time.Minute)
		return 1, nil
	}
	var buf bytes.Buffer
	res := fleet.Run([]fleet.Job{zcoverJob("a", "D1", 1)}, runner,
		fleet.Config{Workers: 1, MaxAttempts: 2, Tracer: telemetry.NewTracer(&buf, nil)})
	if err := fleet.FirstError(res); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("trace = %+v, want a job span and three phase spans", events)
	}
	job := events[0]
	if job.Name != "a" || job.Kind != "job" || job.Attrs["attempts"] != "2" || job.Attrs["outcome"] != "done" {
		t.Errorf("job span = %+v", job)
	}
	want := []struct {
		name string
		dur  float64
		err  string
	}{{"scan", 60, "dead channel"}, {"scan", 60, ""}, {"fuzz", 120, ""}}
	for i, w := range want {
		ev := events[i+1]
		if ev.Name != w.name || ev.Kind != "phase" || ev.DurSec != w.dur || ev.Attrs["error"] != w.err || ev.Attrs["job"] != "a" {
			t.Errorf("span %d = %+v, want %s over %vs sim, error %q", i+1, ev, w.name, w.dur, w.err)
		}
	}
}
