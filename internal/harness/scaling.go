package harness

import (
	"fmt"
	"runtime"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/obs"
	"zcover/internal/zcover/fuzz"
)

// scalingPairs is how many interleaved workers=1/workers=2 pairs the sweep
// runs. On a 2-vCPU host one pair's CPU ratio has a standard deviation of
// about 9%, mostly from the single-worker run, so the gate's 10% needs
// the median of many pairs. Up to 21 were tried; beyond 11 the spread
// between sweeps is the host's drift, which more pairs do not remove
// (PERFORMANCE.md, "Scaling gate on CPU inflation").
const scalingPairs = 11

// ScalingConfig tunes the bench-scaling sweep.
type ScalingConfig struct {
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

// scalingRun runs the workload once at the given worker count and
// measures its wall time, busy CPU and delivered simulated time.
func scalingRun(jobs []fleet.Job, workers int) (obs.ScalingRun, error) {
	cpu := obs.BusyCPUSeconds()
	start := time.Now()
	results := fleet.Run(jobs, RunFleetJob, fleet.Config{Workers: workers})
	wall := time.Since(start)
	cpu = obs.BusyCPUSeconds() - cpu
	if err := fleet.FirstError(results); err != nil {
		return obs.ScalingRun{}, fmt.Errorf("harness: scaling sweep at workers=%d: %w", workers, err)
	}
	run := obs.ScalingRun{WallSec: wall.Seconds(), CPUSec: cpu}
	for _, r := range results {
		if f := r.Value.Fuzz(); f != nil {
			run.SimSec += f.Elapsed.Seconds()
		}
	}
	return run, nil
}

// ScalingSweep measures what a second fleet worker costs: it runs the
// 14-campaign Table V workload at workers=1 and workers=2 in scalingPairs
// interleaved pairs, alternating which side runs first, and reduces them
// to a report whose workers=2 point carries the median CPU inflation;
// cmd/experiments -run scaling renders and gates it.
//
// The campaigns are the deterministic seeds the experiment tables use, so
// every run must deliver the same simulated time; any job failure aborts
// the sweep.
func ScalingSweep(cfg ScalingConfig) (*obs.ScalingReport, error) {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		return nil, fmt.Errorf("harness: scaling sweep needs GOMAXPROCS >= 2, have %d: the fleet caps workers at GOMAXPROCS, so the workers=2 point would run one worker", p)
	}
	if cfg.Budget <= 0 {
		cfg.Budget = time.Hour
	}
	// An unmeasured short run first, so one-time process costs (the
	// command-class database, cold code and heap) land in no pair.
	if err := fleet.FirstError(fleet.Run(scalingJobs(time.Minute), RunFleetJob, fleet.Config{Workers: 2})); err != nil {
		return nil, fmt.Errorf("harness: scaling sweep warm-up: %w", err)
	}
	jobs := scalingJobs(cfg.Budget)
	pairs := make([]obs.ScalingPair, scalingPairs)
	for i := range pairs {
		for _, workers := range [2][2]int{{1, 2}, {2, 1}}[i%2] {
			run, err := scalingRun(jobs, workers)
			if err != nil {
				return nil, err
			}
			pairs[i][workers-1] = run
		}
	}
	campaign := fmt.Sprintf("table5 sweep, %d jobs, %s budget, median of %d interleaved pairs", len(jobs), cfg.Budget, scalingPairs)
	return obs.NewScalingReport(obs.Host(cfg.GitSHA), campaign, pairs)
}
