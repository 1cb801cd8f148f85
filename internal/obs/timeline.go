// Package obs is the campaign execution profiler: it records where a
// fleet's wall time goes and what a second worker costs.
//
// The package layers three pieces on the telemetry registry from
// internal/telemetry:
//
//   - Worker timelines (Timeline): the one recorder of what ran. Each
//     worker lane holds wall-clock intervals attributed to campaign
//     phases (testbed build, scan, discovery, the fuzz loop, checkpoint
//     persist, idle), stamped on the testbed's simulated clock while a
//     testbed runs and carrying the error that aborted a run.
//     Serialization shows up as idle gaps; phase dominance shows up as
//     wall share; SimSpans turns a lane into the -trace-out view.
//   - A unified observability HTTP server (Server): one mux serving
//     /debug/pprof, /metrics (Prometheus text from the registry),
//     /healthz, and /timeline (the live worker timeline as JSON) —
//     replacing the fire-and-forget pprof goroutines the CLIs used to
//     start. A CPU profile from /debug/pprof/profile is the drill-down
//     when the fleet does not scale.
//   - The scaling report (ScalingReport): busy CPU at workers=2 over
//     busy CPU at workers=1 on the same deterministic sweep, the number
//     the scaling gate compares (CheckRegression).
//
// Determinism contract: nothing in this package is consulted by the
// simulation. Attaching a Timeline or serving the HTTP endpoints cannot
// change what a campaign finds — the experiment tables stay
// byte-identical with a timeline on or off, at any worker count (pinned
// in internal/harness tests).
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"zcover/internal/telemetry"
)

// Phase names the fleet and harness attribute worker wall time to. A
// custom fleet runner that never reports phases has its whole run
// attributed to PhaseRun.
const (
	// PhaseIdle is time a worker spends without a job: waiting for work
	// at the queue, or drained at the end of a campaign. Idle gaps while
	// jobs remain queued are the signature of serialization.
	PhaseIdle = "idle"
	// PhaseBuild is per-attempt testbed construction (devices, pairing,
	// S2 key exchange), before the campaign proper starts.
	PhaseBuild = "build"
	// PhaseScan is phase 1 of the pipeline: passive fingerprinting.
	PhaseScan = "scan"
	// PhaseDiscover is phase 2: unknown-properties discovery.
	PhaseDiscover = "discover"
	// PhaseFuzz is phase 3: the fuzz loop, oracle grading included (the
	// oracle observes findings inline on the simulated timeline).
	PhaseFuzz = "fuzz"
	// PhasePersist is checkpoint journaling: encoding the outcome and the
	// fsync'd journal append, serialized across workers.
	PhasePersist = "persist"
	// PhaseRun is runner execution not otherwise attributed (custom
	// runners, or the slice between phases).
	PhaseRun = "run"
)

// Interval is one contiguous stretch of one worker's wall time spent in a
// single phase.
type Interval struct {
	// Worker is the fleet worker lane (0-based).
	Worker int `json:"worker"`
	// Job labels the job being executed ("" for idle intervals).
	Job string `json:"job,omitempty"`
	// Phase is one of the Phase* constants (or a custom phase name).
	Phase string `json:"phase"`
	// Start and End bound the interval on the wall clock.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// SimStart and SimEnd bound the interval on the simulated clock of
	// the testbed running in it; both are zero outside a testbed's run
	// (idle, build, persist).
	SimStart time.Time `json:"sim_start,omitzero"`
	SimEnd   time.Time `json:"sim_end,omitzero"`
	// Err is the error that aborted the run during this interval.
	Err string `json:"error,omitempty"`
}

// Dur returns the interval's length.
func (iv Interval) Dur() time.Duration { return iv.End.Sub(iv.Start) }

// lane is one worker's recording state.
type lane struct {
	intervals []Interval
	open      Interval // open.Phase == "" means no interval in flight
}

// Timeline records per-worker phase intervals. All methods are safe for
// concurrent use and safe on a nil receiver (a nil *Timeline is a valid
// no-op recorder), so the fleet and harness call sites need no guards.
//
// Recording cost is one mutex acquisition per phase transition — a
// handful per job, nowhere near the per-frame hot path.
type Timeline struct {
	mu    sync.Mutex
	now   func() time.Time
	lanes map[int]*lane
	start time.Time
}

// NewTimeline returns an empty timeline on the wall clock.
func NewTimeline() *Timeline {
	return &Timeline{now: time.Now, lanes: map[int]*lane{}}
}

// SetNow overrides the timeline clock (tests). Not for concurrent use
// with recording.
func (t *Timeline) SetNow(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// StartWorker opens worker w's lane in the idle phase. The fleet calls it
// once per worker goroutine before the job loop.
func (t *Timeline) StartWorker(w int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	if t.start.IsZero() || now.Before(t.start) {
		t.start = now
	}
	t.transition(t.lane(w), w, "", PhaseIdle, now, time.Time{})
}

// StopWorker closes worker w's open interval.
func (t *Timeline) StopWorker(w int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeOpen(t.lane(w), t.now())
}

// Phase transitions worker w into the given phase of the given job,
// closing whatever interval was open. sim is the running testbed's
// simulated clock, zero when no testbed runs: it ends the closed interval
// and starts the new one on simulated time. Use job "" with PhaseIdle for
// between-job waits.
func (t *Timeline) Phase(w int, job, phase string, sim time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.transition(t.lane(w), w, job, phase, t.now(), sim)
}

// EndRun stamps worker w's open interval with the simulated instant the
// testbed's run ended and the error, if any, that aborted it. The wall
// end comes with the next transition.
func (t *Timeline) EndRun(w int, sim time.Time, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	open := &t.lane(w).open
	if !open.SimStart.IsZero() {
		open.SimEnd = sim
	}
	if err != nil {
		open.Err = err.Error()
	}
}

// LastJob returns the intervals of the last job worker w finished: the
// closed intervals after the lane's previous idle one.
func (t *Timeline) LastJob(w int) []Interval {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ivs := t.lane(w).intervals
	i := len(ivs)
	for i > 0 && ivs[i-1].Phase != PhaseIdle {
		i--
	}
	return append([]Interval(nil), ivs[i:]...)
}

// lane returns worker w's lane, creating it. Callers hold t.mu.
func (t *Timeline) lane(w int) *lane {
	ln, ok := t.lanes[w]
	if !ok {
		ln = &lane{}
		t.lanes[w] = ln
	}
	return ln
}

// closeOpen completes the lane's open interval at now. Callers hold t.mu.
func (t *Timeline) closeOpen(ln *lane, now time.Time) {
	if ln.open.Phase == "" {
		return
	}
	ln.open.End = now
	ln.intervals = append(ln.intervals, ln.open)
	ln.open = Interval{}
}

// transition closes the open interval and opens a new one. Callers hold t.mu.
func (t *Timeline) transition(ln *lane, w int, job, phase string, now, sim time.Time) {
	if !ln.open.SimStart.IsZero() && ln.open.SimEnd.IsZero() {
		ln.open.SimEnd = sim
	}
	t.closeOpen(ln, now)
	ln.open = Interval{Worker: w, Job: job, Phase: phase, Start: now, SimStart: sim}
}

// SimSpans is the trace view of a lane's intervals: one "phase" event per
// scan, discover or fuzz interval, on the testbed's simulated clock, so
// the view is identical at any worker count. Each event carries its job
// and the error that aborted the run in it.
func SimSpans(ivs []Interval) []telemetry.TraceEvent {
	var out []telemetry.TraceEvent
	for _, iv := range ivs {
		if iv.Phase != PhaseScan && iv.Phase != PhaseDiscover && iv.Phase != PhaseFuzz {
			continue
		}
		attrs := map[string]string{"job": iv.Job}
		if iv.Err != "" {
			attrs["error"] = iv.Err
		}
		out = append(out, telemetry.TraceEvent{Name: iv.Phase, Kind: "phase",
			Start: iv.SimStart, End: iv.SimEnd, Attrs: attrs})
	}
	return out
}

// WorkerStats is one worker's aggregate over a timeline snapshot.
type WorkerStats struct {
	// Worker is the lane index.
	Worker int `json:"worker"`
	// BusySec and IdleSec split the worker's recorded wall time.
	BusySec float64 `json:"busy_sec"`
	IdleSec float64 `json:"idle_sec"`
	// Jobs is how many distinct job labels the worker executed.
	Jobs int `json:"jobs"`
}

// Snapshot is a consistent copy of a timeline with aggregates.
type Snapshot struct {
	// Start is the earliest recorded instant.
	Start time.Time `json:"start"`
	// At is when the snapshot was taken.
	At time.Time `json:"at"`
	// Workers aggregates each lane, ordered by worker index.
	Workers []WorkerStats `json:"workers"`
	// PhaseWallSec is total wall time per phase, summed across workers.
	PhaseWallSec map[string]float64 `json:"phase_wall_sec"`
	// Intervals is every completed interval plus in-flight ones truncated
	// at the snapshot instant, ordered by worker then start time.
	Intervals []Interval `json:"intervals"`
}

// Snapshot captures the timeline, truncating in-flight intervals at the
// current instant. Safe to call concurrently with recording (the
// /timeline endpoint does). A nil timeline yields a zero snapshot.
func (t *Timeline) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	snap := Snapshot{Start: t.start, At: now, PhaseWallSec: map[string]float64{}}
	workers := make([]int, 0, len(t.lanes))
	for w := range t.lanes {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		ln := t.lanes[w]
		ivs := append([]Interval(nil), ln.intervals...)
		if ln.open.Phase != "" {
			open := ln.open
			open.End = now
			ivs = append(ivs, open)
		}
		ws := WorkerStats{Worker: w}
		jobs := map[string]bool{}
		for _, iv := range ivs {
			sec := iv.Dur().Seconds()
			snap.PhaseWallSec[iv.Phase] += sec
			if iv.Phase == PhaseIdle {
				ws.IdleSec += sec
			} else {
				ws.BusySec += sec
				if iv.Job != "" {
					jobs[iv.Job] = true
				}
			}
		}
		ws.Jobs = len(jobs)
		snap.Workers = append(snap.Workers, ws)
		snap.Intervals = append(snap.Intervals, ivs...)
	}
	return snap
}

// WriteJSON renders the snapshot as one indented JSON document.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
