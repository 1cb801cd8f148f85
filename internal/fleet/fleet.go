// Package fleet schedules many independent fuzzing campaigns across a
// bounded worker pool.
//
// The paper's evaluation is dozens of self-contained 24-hour campaigns
// (7 controllers × 3 strategies × multi-trial repeats); each one runs on
// its own testbed.Testbed with a private simulated clock and radio medium,
// so nothing stops them from running concurrently. The fleet is the
// orchestration layer that exploits that: it accepts a slice of Job specs,
// executes them across Config.Workers goroutines, and returns results in
// deterministic job order regardless of completion order.
//
// Isolation is the core invariant. The fleet — not the caller — constructs
// a fresh testbed for every attempt, so campaigns share no mutable state
// and a retry never observes residue (oracle events, controller memory,
// radio sniffer buffers) from a failed predecessor. A campaign that panics
// is recovered and recorded, not propagated: one bad campaign cannot abort
// a table. Failed attempts are retried with fresh testbed state up to
// Config.MaxAttempts before the job is reported failed in its Result.
//
// Observability: Config.OnProgress receives a Progress snapshot of the
// pool (jobs queued/running/done/failed, the finished jobs' finding and
// packet counts, simulated versus wall-clock throughput) on every state
// change — cmd/experiments renders it as a live ticker. The fleet keeps
// these counts itself; a job's findings, packets and simulated time
// count once it has succeeded and been persisted.
//
// # Concurrency and pooling
//
// Run is safe to call from multiple goroutines on distinct Fleet values;
// one Fleet runs one job slice at a time. Worker goroutines share nothing
// campaign-visible: each attempt gets a fresh testbed, private SimClock,
// medium, and oracle bus. What workers do share are the process-wide
// object pools (protocol frame/buffer pools, security cipher-context
// cache and crypto scratch pool) — all safe for concurrent use and
// invisible to results, which is why tables render byte-identically for
// any worker count. One mutex guards the Progress counts and serializes
// OnProgress callbacks, which run on worker goroutines and must be fast.
package fleet

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"zcover/internal/chaos"
	"zcover/internal/obs"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// DefaultMaxAttempts is how many times a job runs (first try plus retries)
// before the fleet reports it failed.
const DefaultMaxAttempts = 2

// Job is one self-contained campaign spec: which controller to build a
// testbed around and how to fuzz it. The zero strategy with Baseline set
// runs the VFuzz comparison engine instead of the ZCover pipeline.
type Job struct {
	// Name labels the job in results and progress ("table5/D3/zcover").
	// Optional; a label is derived from the other fields when empty.
	Name string
	// Device is the testbed index ("D1".."D7").
	Device string
	// Patched selects the §V-B updated-specification firmware.
	Patched bool
	// Strategy is the ZCover configuration (ignored for Baseline jobs).
	Strategy fuzz.Strategy
	// Baseline runs the VFuzz baseline instead of the ZCover pipeline.
	Baseline bool
	// FuzzMode selects the engine for ZCover jobs: "" is the generational
	// Algorithm 1 engine, ModeCoverage the coverage-guided one.
	FuzzMode string
	// Frames, when positive, caps the campaign's injected test frames
	// (fuzz.Config.FrameBudget). At Budget/500ms or above the cap is never
	// reached and the campaign stops at its time budget. A lower cap
	// starves the generational engine, whose per-class windows come from
	// Budget; see fuzz.Config.FrameBudget.
	Frames int
	// Seed drives both the testbed assembly (S2 pairing entropy) and the
	// campaign's mutation stream, exactly as the sequential drivers did.
	Seed int64
	// Budget is the fuzzing duration (simulated time).
	Budget time.Duration
	// ChaosProfile, when non-empty, installs a fault injector on the job's
	// testbed (chaos.ParseProfile syntax, e.g. "burst" or
	// "lossy:corrupt=0.1"). Empty or "none" keeps the channel clean and the
	// campaign byte-identical to pre-chaos builds.
	ChaosProfile string
	// ChaosSeed seeds the injector's fault streams, independent of Seed so
	// the same campaign can be replayed under different impairment draws.
	ChaosSeed int64
}

// ModeCoverage selects the coverage-guided engine for a job.
const ModeCoverage = "coverage"

// Label returns Name, or a derived "device/strategy" label.
func (j Job) Label() string {
	if j.Name != "" {
		return j.Name
	}
	label := j.Device + "/" + string(j.Strategy)
	if j.Baseline {
		label = j.Device + "/vfuzz"
	}
	if j.FuzzMode == ModeCoverage {
		label = j.Device + "/covfuzz"
	}
	if j.ChaosProfile != "" {
		label += "+" + j.ChaosProfile
	}
	return label
}

// Build assembles the job's private testbed. Every attempt gets a fresh
// one, so campaigns share nothing and retries start clean — including the
// fault injector, whose burst/partition state is rebuilt from ChaosSeed.
func (j Job) Build() (*testbed.Testbed, error) {
	var tb *testbed.Testbed
	var err error
	if j.Patched {
		tb, err = testbed.NewPatched(j.Device, j.Seed)
	} else {
		tb, err = testbed.New(j.Device, j.Seed)
	}
	if err != nil {
		return nil, err
	}
	if j.ChaosProfile != "" {
		p, perr := chaos.ParseProfile(j.ChaosProfile)
		if perr != nil {
			return nil, fmt.Errorf("fleet: job %s: %w", j.Label(), perr)
		}
		tb.ApplyChaos(p, j.ChaosSeed)
	}
	return tb, nil
}

// Runner executes one job attempt against a freshly built testbed and
// returns the campaign outcome. The runner must confine itself to the
// given testbed; obs reports its phases and, once the campaign ends, its
// result (Observer.Report). harness.RunFleetJob is the canonical runner
// for the experiment drivers.
type Runner[T any] func(tb *testbed.Testbed, job Job, obs *Observer) (T, error)

// Config tunes the pool.
type Config struct {
	// Workers bounds campaign concurrency. Zero or negative means
	// GOMAXPROCS. Workers=1 is the sequential fallback: byte-identical to
	// running the jobs in a plain loop.
	//
	// Campaigns are CPU-bound (the simulation never blocks on real I/O
	// apart from the serialized checkpoint append), so worker goroutines
	// beyond GOMAXPROCS cannot add throughput — they only add scheduler
	// churn and cache interleaving. A 1→8 worker sweep on a 1-P host
	// measured that oversubscription tax at ~7% sim-rate (PERFORMANCE.md,
	// "Diagnosing scaling"), so Run caps the pool at GOMAXPROCS. Results
	// are byte-identical at any worker count.
	Workers int
	// MaxAttempts is how many times a failing job is run (each attempt on
	// a fresh testbed) before it is reported failed. Zero or negative
	// means DefaultMaxAttempts.
	MaxAttempts int
	// OnProgress, if set, receives a Progress snapshot after every state
	// change (job start, retry, job end) and once more when Run drains.
	// It is the only way to read a fleet's progress. Calls are serialized
	// by the fleet, under the lock that guards the counts; the callback
	// must not block for long.
	OnProgress func(Progress)
	// Tracer, if set, receives each finished job as a view of its Timeline
	// lane: its wall-clock span (device, strategy, attempts, outcome), then
	// its phase spans on simulated time (obs.SimSpans). A Tracer without a
	// Timeline records into a private one. The fleet does not fail a job
	// over a trace write; the Tracer keeps the error (Tracer.Err).
	Tracer *telemetry.Tracer
	// Checkpoint, if set, asks the campaign layer to journal completed
	// jobs crash-safely and to resume across runs. The fleet carries the
	// spec but does not interpret it (see CheckpointSpec); callers install
	// the journal through WithResume.
	Checkpoint *CheckpointSpec
	// Timeline, if set, records per-worker phase intervals (build, the
	// pipeline phases, persist, idle) on wall and simulated time for the
	// scaling report, the /timeline endpoint and the Tracer. Nil disables
	// recording at zero cost; attaching one never changes campaign
	// results.
	Timeline *obs.Timeline
}

// CheckpointSpec asks the campaign layer to journal completed jobs
// crash-safely and to resume from an existing journal. The fleet itself
// treats the spec as data — internal/harness interprets it around the
// fleet (the fleet cannot, because only the caller knows how to
// serialise its result type T).
type CheckpointSpec struct {
	// Dir is the checkpoint directory holding one journal per campaign.
	// Empty disables checkpointing.
	Dir string
	// Resume permits continuing an existing journal; without it an
	// existing journal is an error (refusing to double-run a campaign
	// by accident).
	Resume bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.Tracer != nil && c.Timeline == nil {
		c.Timeline = obs.NewTimeline()
	}
	return c
}

// Result is one job's outcome. Results are returned in job order.
type Result[T any] struct {
	// Job echoes the spec.
	Job Job
	// Value is the runner's return value (zero when Err is non-nil).
	Value T
	// Err is nil on success; otherwise the final attempt's error. A
	// recovered panic surfaces as a *PanicError in the chain.
	Err error
	// Attempts is how many times the job ran (1 = first try succeeded).
	Attempts int
	// AttemptErrors records each failed attempt's error text, in order.
	AttemptErrors []string
}

// PanicError wraps a panic recovered from a campaign so one bad run cannot
// abort the whole table.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements error. The stack is kept out of the message so error
// strings stay comparable across runs; read Stack for forensics.
func (e *PanicError) Error() string {
	return fmt.Sprintf("campaign panicked: %v", e.Value)
}

// Fleet executes a fixed job list across a worker pool. Construct with
// New, start with Run; Config.OnProgress reports on it while it runs.
type Fleet[T any] struct {
	jobs   []Job
	runner Runner[T]
	cfg    Config

	// mu guards progress and serializes OnProgress callbacks. progress
	// leaves Queued and Wall zero; update derives them from the other
	// counts and from start, which Run sets before any worker starts.
	mu       sync.Mutex
	progress Progress
	start    time.Time

	// persist is the checkpoint hook (WithResume): it makes a freshly
	// completed outcome durable. persistMu serializes it so journal
	// appends never interleave.
	persist   func(i int, job Job, res Result[T]) error
	persistMu sync.Mutex
}

// New builds a fleet over the given jobs. Run executes it.
func New[T any](jobs []Job, runner Runner[T], cfg Config) *Fleet[T] {
	if runner == nil {
		panic("fleet: nil runner")
	}
	return &Fleet[T]{jobs: jobs, runner: runner, cfg: cfg.withDefaults(),
		progress: Progress{Total: len(jobs)}}
}

// Run executes every job and returns one Result per job, index-aligned
// with the input slice regardless of completion order. Run blocks until
// the whole fleet drains; call it once.
func Run[T any](jobs []Job, runner Runner[T], cfg Config) []Result[T] {
	return New(jobs, runner, cfg).Run()
}

// WithResume installs the persist hook of a resumable run and returns f.
// persist is invoked once per successfully executed job, serialized
// across workers; a persist error fails the job — a checkpointed
// campaign whose journal cannot be written must not pretend its work is
// durable. Jobs already journaled are the caller's to leave out of the
// job list.
func (f *Fleet[T]) WithResume(persist func(i int, job Job, res Result[T]) error) *Fleet[T] {
	f.persist = persist
	return f
}

// EffectiveWorkers returns the worker-goroutine count Run will actually
// use for a fleet of `jobs` jobs: Workers clamped to the job count and to
// GOMAXPROCS, since extra goroutines on a CPU-bound pool cost sim-rate
// instead of adding it.
func (c Config) EffectiveWorkers(jobs int) int {
	p := runtime.GOMAXPROCS(0)
	workers := c.Workers
	if workers <= 0 || workers > p {
		workers = p
	}
	return max(1, min(workers, jobs))
}

// Run executes the fleet. See the package-level Run.
func (f *Fleet[T]) Run() []Result[T] {
	f.start = time.Now()
	results := make([]Result[T], len(f.jobs))
	workers := f.cfg.EffectiveWorkers(len(f.jobs))

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f.cfg.Timeline.StartWorker(w)
			defer f.cfg.Timeline.StopWorker(w)
			// Each results slot is written by exactly one worker, so the
			// slice needs no lock; wg.Wait orders the writes before reads.
			for i := range idx {
				results[i] = f.execute(w, i, f.jobs[i])
				f.cfg.Timeline.Phase(w, "", obs.PhaseIdle, time.Time{})
				f.trace(w, results[i])
			}
		}(w)
	}
	for i := range f.jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	f.update(nil)
	return results
}

// update applies change (if any) to the counts and hands the resulting
// snapshot to OnProgress, all under one lock.
func (f *Fleet[T]) update(change func(p *Progress)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if change != nil {
		change(&f.progress)
	}
	if f.cfg.OnProgress != nil {
		p := f.progress
		p.Queued = p.Total - p.Running - p.Done - p.Failed
		p.Wall = time.Since(f.start)
		f.cfg.OnProgress(p)
	}
}

// execute runs one job to completion: up to MaxAttempts attempts, each on
// a fresh testbed, with panics recovered. Only the succeeding attempt's
// report reaches Progress, and only once the job is persisted. w is the
// worker lane for timeline attribution.
func (f *Fleet[T]) execute(w, i int, job Job) Result[T] {
	f.update(func(p *Progress) { p.Running++ })

	res := Result[T]{Job: job}
	var ob *Observer
	for attempt := 1; attempt <= f.cfg.MaxAttempts; attempt++ {
		res.Attempts = attempt
		ob = &Observer{timeline: f.cfg.Timeline, worker: w, job: job.Label()}
		val, err := f.attempt(w, job, ob)
		if err == nil {
			res.Value, res.Err = val, nil
			break
		}
		res.AttemptErrors = append(res.AttemptErrors, err.Error())
		res.Err = fmt.Errorf("fleet: job %s: attempt %d/%d: %w",
			job.Label(), attempt, f.cfg.MaxAttempts, err)
		if attempt < f.cfg.MaxAttempts {
			f.update(func(p *Progress) { p.Retried++ })
		}
	}

	if res.Err == nil && f.persist != nil {
		// Persist is serialized across workers, so with a deep queue this
		// section shows up on the timeline as contention — phase-attribute
		// the wait plus the fsync'd append together.
		f.cfg.Timeline.Phase(w, job.Label(), obs.PhasePersist, time.Time{})
		f.persistMu.Lock()
		err := f.persist(i, job, res)
		f.persistMu.Unlock()
		if err != nil {
			res.Err = fmt.Errorf("fleet: job %s: checkpointing result: %w", job.Label(), err)
		}
	}

	f.update(func(p *Progress) {
		p.Running--
		if res.Err != nil {
			p.Failed++
			return
		}
		p.Done++
		p.Findings += ob.findings
		p.Packets += ob.packets
		p.SimTime += ob.sim
	})
	return res
}

// attempt builds a fresh testbed and runs the job once, converting a
// panic anywhere in the campaign stack into a *PanicError. The lane's
// open interval ends on the testbed's clock with the attempt's error.
func (f *Fleet[T]) attempt(w int, job Job, ob *Observer) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
		var sim time.Time
		if ob.clock != nil {
			sim = ob.clock.Now()
		}
		f.cfg.Timeline.EndRun(w, sim, err)
	}()
	f.cfg.Timeline.Phase(w, job.Label(), obs.PhaseBuild, time.Time{})
	tb, err := job.Build()
	if err != nil {
		return val, err
	}
	ob.clock = tb.Clock
	// Runners that report pipeline phases (Observer.Phase) refine this;
	// anything else is attributed to the catch-all run phase.
	f.cfg.Timeline.Phase(w, job.Label(), obs.PhaseRun, tb.Clock.Now())
	return f.runner(tb, job, ob)
}

// trace writes worker w's finished job to the Tracer: the job's
// wall-clock span over its lane intervals, then its pipeline phases on
// simulated time.
func (f *Fleet[T]) trace(w int, res Result[T]) {
	if f.cfg.Tracer == nil {
		return
	}
	ivs := f.cfg.Timeline.LastJob(w)
	if len(ivs) == 0 { // another fleet sharing the Timeline moved the lane on
		return
	}
	outcome := "done"
	if res.Err != nil {
		outcome = "failed"
	}
	job := telemetry.TraceEvent{Name: res.Job.Label(), Kind: "job",
		Start: ivs[0].Start, End: ivs[len(ivs)-1].End, Attrs: map[string]string{
			"device": res.Job.Device, "strategy": string(res.Job.Strategy),
			"attempts": strconv.Itoa(res.Attempts), "outcome": outcome,
		}}
	// A failed write stays on the Tracer for its owner to read (Tracer.Err).
	_ = f.cfg.Tracer.Write(append([]telemetry.TraceEvent{job}, obs.SimSpans(ivs)...)...)
}

// FirstError returns the first failed job's error in job order, or nil if
// every job succeeded. Drivers that want all-or-nothing semantics (every
// table needs every row) use it to fail deterministically.
func FirstError[T any](results []Result[T]) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}
