// Package harness orchestrates complete experiments: it assembles a
// testbed, runs the three ZCover phases (or a baseline fuzzer) end to end,
// and regenerates every table and figure of the paper's evaluation
// section. Each experiment driver lives in its own file (table3.go,
// fig12.go, ...).
package harness

import (
	"fmt"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/corpus"
	"zcover/internal/fleet"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/vfuzz"
	"zcover/internal/zcover/discover"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/minimize"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// PassiveScanWindow is how long campaigns sniff before interrogating the
// target; the testbed schedules periodic slave reports inside it.
const PassiveScanWindow = 2 * time.Minute

// Options attaches optional observability, and for coverage-guided jobs
// the corpus side, to a campaign run. The zero value runs the campaign
// exactly as the fleet does: no callback, no recorder, an in-memory
// corpus. The observers cannot change what the campaign finds,
// only what it records along the way.
type Options struct {
	// OnFinding is invoked live for each unique finding.
	OnFinding func(fuzz.Finding)
	// FlightRecorderDepth, when positive, attaches a packet flight recorder
	// of that depth to the testbed medium for the duration of the run, and
	// each finding carries a snapshot of the last frames on the air at the
	// moment of discovery (Finding.Trace).
	FlightRecorderDepth int
	// OnPhase, when non-nil, is invoked at the start of each pipeline
	// phase ("scan", "discover", "fuzz") on the campaign goroutine: the
	// hook an obs.Timeline lane records phases through, on wall and
	// simulated time. A phase lasts until the next call or the run's end.
	OnPhase func(phase string)
	// CorpusDir, for coverage-guided jobs, journals every admitted seed to
	// a crash-safe corpus journal under this directory
	// (corpus.OpenJournal), so a killed campaign keeps its corpus and a
	// rerun replays it. Empty keeps the corpus in memory.
	CorpusDir string
	// ResumeCorpus allows continuing an existing corpus journal; without
	// it an existing journal is refused, mirroring campaign checkpoints.
	ResumeCorpus bool
	// Minimize reduces coverage-guided finding seeds to their minimal
	// trigger before admission (corpus.Manager.SetMinimizer).
	Minimize bool
}

// Campaign is one complete ZCover run against one testbed.
type Campaign struct {
	// Fingerprint is the phase-1 output.
	Fingerprint scan.Fingerprint
	// Discovery is the phase-2 output (zero value for β/γ, which skip it
	// in whole or in part).
	Discovery discover.Result
	// Fuzz is the phase-3 campaign result.
	Fuzz *fuzz.Result
}

// FleetOutcome is one campaign's result: exactly one of Campaign (ZCover
// jobs), Baseline (VFuzz jobs), or CovFuzz (coverage-guided jobs) is set.
type FleetOutcome struct {
	Campaign *Campaign
	Baseline *fuzz.Result
	CovFuzz  *fuzz.CovResult
}

// Fuzz returns the job's fuzzing result regardless of kind.
func (o FleetOutcome) Fuzz() *fuzz.Result {
	if o.Baseline != nil {
		return o.Baseline
	}
	if o.CovFuzz != nil {
		return &o.CovFuzz.Result
	}
	if o.Campaign != nil {
		return o.Campaign.Fuzz
	}
	return nil
}

// Run executes one campaign spec against the testbed's controller. It is
// the only campaign pipeline; the job picks which phases run and which
// engine fuzzes:
//
//   - a ZCover job fingerprints the target, discovers unknown command
//     classes (full strategy only), and runs the generational engine;
//   - a coverage job (FuzzMode fleet.ModeCoverage) runs the full
//     discovery pipeline and then the coverage-guided engine;
//   - a baseline job scans passively for the network and runs VFuzz.
//
// The testbed must already be built for the job (fleet workers build it
// from Device, Patched and the chaos fields). Run checks a set Device
// against the testbed and otherwise reads only the job's engine
// selection, strategy, seed, budget and frame cap.
func Run(tb *testbed.Testbed, job fleet.Job, opts Options) (out FleetOutcome, err error) {
	device := tb.Controller.Profile().Index
	coverage := job.FuzzMode == fleet.ModeCoverage
	baseline := job.Baseline && !coverage
	switch {
	case job.FuzzMode != "" && !coverage:
		return out, fmt.Errorf("harness: unknown fuzz mode %q (want %q or empty)", job.FuzzMode, fleet.ModeCoverage)
	case job.Device != "" && job.Device != device:
		return out, fmt.Errorf("harness: job targets %s but the testbed is %s", job.Device, device)
	case opts.CorpusDir != "" && !coverage:
		return out, fmt.Errorf("harness: a corpus directory needs a coverage-guided job")
	case job.Budget <= 0:
		return out, fmt.Errorf("harness: budget %s is not positive", job.Budget)
	}
	reg, err := cmdclass.Load()
	if err != nil {
		return out, fmt.Errorf("harness: %w", err)
	}
	d := dongle.New(tb.Medium, tb.Region)

	var recorder *telemetry.FlightRecorder
	if opts.FlightRecorderDepth > 0 {
		recorder = telemetry.NewFlightRecorder(opts.FlightRecorderDepth)
		tb.Medium.SetFlightRecorder(recorder)
		defer tb.Medium.SetFlightRecorder(nil)
	}
	// Coverage mode runs the full pipeline whatever the job's strategy.
	strategy := job.Strategy
	if coverage {
		strategy = fuzz.StrategyFull
	}
	discovers := strategy == fuzz.StrategyFull && !baseline
	onPhase := opts.OnPhase
	if onPhase == nil {
		onPhase = func(string) {}
	}

	// Phase 1: known-properties fingerprinting over live traffic; VFuzz,
	// too, scans for the home and controller IDs, passively.
	onPhase("scan")
	tb.ScheduleTraffic(12, 10*time.Second)
	var fp scan.Fingerprint
	var net scan.Network
	if baseline {
		nets := scan.Passive(d, PassiveScanWindow)
		if len(nets) == 0 {
			return out, fmt.Errorf("harness: vfuzz: no traffic observed")
		}
		net = nets[0]
	} else {
		if fp, err = scan.FingerprintTarget(d, PassiveScanWindow, 0); err != nil {
			return out, fmt.Errorf("harness: fingerprinting: %w", err)
		}
	}

	// Phase 2: unknown-properties discovery (full strategy only — the β
	// ablation deliberately ignores unknown classes, γ ignores both).
	var disc discover.Result
	if discovers {
		onPhase("discover")
		if disc, err = discover.Run(d, reg, fp); err != nil {
			return out, fmt.Errorf("harness: discovery: %w", err)
		}
	}

	// Phase 3: fuzzing, on the engine the job selects.
	fcfg := fuzz.Config{
		Duration:    job.Budget,
		OnFinding:   opts.OnFinding,
		Recorder:    recorder,
		FrameBudget: job.Frames,
	}
	if tb.Chaos != nil {
		// Under chaos the engine grades findings against the injector's
		// fault timeline (Confidence) and re-probes liveness before calling
		// an outage, so impairment-induced silence is not a vulnerability.
		fcfg.Impairment = tb.Chaos
		fcfg.PingAttempts = 3
	}
	var mut *mutate.Mutator
	var queue []*cmdclass.Class
	if !baseline {
		if strategy == fuzz.StrategyRandom {
			mut = mutate.NewRandom(job.Seed)
		} else {
			mut = mutate.New(mutate.Semantics{Controller: fp.Controller, KnownNodes: fp.Nodes}, job.Seed)
		}
		var listed []*cmdclass.Class
		for _, id := range fp.Listed {
			if cls, ok := reg.Get(id); ok {
				listed = append(listed, cls)
			}
		}
		queue = fuzz.BuildQueue(strategy, reg, listed, disc.Prioritized, job.Seed)
	}
	onPhase("fuzz")
	var res *fuzz.Result
	switch {
	case baseline:
		var engine *vfuzz.Engine
		if engine, err = vfuzz.New(d, net.Home, net.Controller, job.Seed, fcfg); err != nil {
			return out, fmt.Errorf("harness: %w", err)
		}
		sub := tb.Bus.Subscribe(engine.Observe)
		defer sub.Unsubscribe()
		res = engine.Run()
		res.Device = device
		out.Baseline = res
	case coverage:
		var engine *fuzz.CovEngine
		if engine, err = fuzz.NewCov(d, fp, queue, mut, device, job.Seed, fcfg); err != nil {
			return out, fmt.Errorf("harness: %w", err)
		}
		if out.CovFuzz, err = runCoverage(tb, engine, job, opts); err != nil {
			return FleetOutcome{}, err
		}
		res = &out.CovFuzz.Result
	default:
		var engine *fuzz.Engine
		if engine, err = fuzz.New(d, fp, queue, mut, strategy, device, fcfg); err != nil {
			return out, fmt.Errorf("harness: %w", err)
		}
		sub := tb.Bus.Subscribe(engine.Observe)
		defer sub.Unsubscribe()
		res = engine.Run()
		out.Campaign = &Campaign{Fingerprint: fp, Discovery: disc, Fuzz: res}
	}
	if discovers {
		// Only the full pipeline runs discovery; for β/γ the engine's own
		// count stands rather than being clobbered by the zero-value
		// Discovery.
		res.CommandsCovered = len(disc.ConfirmedCommands)
	}
	return out, nil
}

// runCoverage runs the coverage-guided engine. Its behavioral-coverage
// collector is wired into the controller's dispatch path and the oracle
// bus for the duration of the run, and coverage-novel inputs grow a
// deterministic corpus, journaled under opts.CorpusDir when set.
func runCoverage(tb *testbed.Testbed, engine *fuzz.CovEngine, job fleet.Job, opts Options) (*fuzz.CovResult, error) {
	device := tb.Controller.Profile().Index
	cov := engine.Coverage()
	tb.Controller.SetCoverage(cov)
	defer tb.Controller.SetCoverage(nil)
	tb.Bus.SetCoverage(cov)
	defer tb.Bus.SetCoverage(nil)

	if opts.Minimize {
		engine.Corpus().SetMinimizer(minimize.New(device, job.Seed))
	}
	if opts.CorpusDir != "" {
		key := covFuzzKey{Device: device, Duration: job.Budget, Frames: job.Frames, Seed: job.Seed}
		j, err := corpus.OpenJournal(opts.CorpusDir, "covfuzz-"+device, key, opts.ResumeCorpus)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		engine.Corpus().AttachJournal(j)
	}
	sub := tb.Bus.Subscribe(engine.Observe)
	defer sub.Unsubscribe()
	return engine.Run()
}

// covFuzzKey pins a corpus journal to the campaign that wrote it: any
// drift in these inputs changes the SpecHash and refuses the journal.
type covFuzzKey struct {
	Device   string        `json:"device"`
	Duration time.Duration `json:"duration"`
	Frames   int           `json:"frames,omitempty"`
	Seed     int64         `json:"seed"`
}
