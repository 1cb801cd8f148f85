package harness

import (
	"fmt"
	"runtime"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/obs"
	"zcover/internal/zcover/fuzz"
)

// ScalingConfig tunes the bench-scaling sweep.
type ScalingConfig struct {
	// Workers is the worker counts to measure, e.g. [1, 2, 4, 8]. Empty
	// means exactly that default.
	Workers []int
	// Budget is each campaign's simulated fuzzing duration. Zero means one
	// hour.
	Budget time.Duration
	// GitSHA stamps the report's host info (passed in by scripts; empty is
	// fine).
	GitSHA string
}

// scalingJobs is the measured workload: the 7-device Table V-style sweep
// (VFuzz + ZCover per controller, 14 CPU-bound jobs sharing nothing).
func scalingJobs(budget time.Duration) []fleet.Job {
	devices := []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7"}
	var jobs []fleet.Job
	for _, idx := range devices {
		seed := deviceSeed(idx)
		jobs = append(jobs,
			fleet.Job{Name: "bench/" + idx + "/vfuzz", Device: idx,
				Baseline: true, Seed: seed, Budget: budget},
			fleet.Job{Name: "bench/" + idx + "/zcover", Device: idx,
				Strategy: fuzz.StrategyFull, Seed: seed, Budget: budget})
	}
	return jobs
}

// scalingPoint runs the workload once at the given worker count with a
// timeline attached and converts the run into one report point.
func scalingPoint(jobs []fleet.Job, workers int) (obs.ScalingPoint, error) {
	tl := obs.NewTimeline()
	cfg := fleet.Config{Workers: workers, Timeline: tl}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	results := fleet.Run(jobs, RunFleetJob, cfg)
	wall := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if err := fleet.FirstError(results); err != nil {
		return obs.ScalingPoint{}, fmt.Errorf("harness: scaling sweep at workers=%d: %w", workers, err)
	}
	var simSec float64
	for _, r := range results {
		if f := r.Value.Fuzz(); f != nil {
			simSec += f.Elapsed.Seconds()
		}
	}
	snap := tl.Snapshot()
	pt := obs.ScalingPoint{
		Workers:          workers,
		EffectiveWorkers: cfg.EffectiveWorkers(len(jobs)),
		WallSec:          wall.Seconds(),
		SimSec:           simSec,
		Phases:           snap.PhaseShares(),
		GCPauseNs:        int64(after.PauseTotalNs - before.PauseTotalNs),
	}
	for _, ws := range snap.Workers {
		pt.IdleSec += ws.IdleSec
	}
	return pt, nil
}

// ScalingSweep measures the fleet's parallel scaling: it runs the
// 14-campaign Table V workload at each requested worker count with a
// worker timeline attached. The returned report has derived efficiencies
// computed and bottlenecks ranked (Finalize already called);
// cmd/experiments -run scaling renders it.
//
// The campaigns themselves are byte-for-byte the deterministic seeds the
// experiment tables use, so the sweep doubles as a cross-worker-count
// consistency check: any job failure aborts the sweep.
func ScalingSweep(cfg ScalingConfig) (*obs.ScalingReport, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4, 8}
	}
	if cfg.Budget <= 0 {
		cfg.Budget = time.Hour
	}
	// Mutex/block profiling stays on for the whole sweep so the report
	// can rank lock sites. The profiling tax applies equally to every
	// point, keeping the points comparable.
	restore := obs.StartProfiling(obs.ProfileConfig{})
	defer restore()

	jobs := scalingJobs(cfg.Budget)
	rep := &obs.ScalingReport{
		Host:     obs.Host(cfg.GitSHA),
		Campaign: fmt.Sprintf("table5 sweep, %d jobs, %s budget", len(jobs), cfg.Budget),
	}
	for _, w := range cfg.Workers {
		pt, err := scalingPoint(jobs, w)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
	}
	rep.Locks = obs.TopContendedLocks(10)
	rep.Finalize()
	return rep, nil
}
