package harness

import (
	"sync/atomic"

	"zcover/internal/fleet"
	"zcover/internal/testbed"
)

// fleetRecorderDepth is the flight-recorder depth RunFleetJob attaches to
// every campaign testbed (0 = off). Process-wide because the experiment
// drivers own their job lists; set once from command-line flags.
var fleetRecorderDepth atomic.Int32

// SetFleetRecorderDepth makes every subsequent fleet campaign run with a
// packet flight recorder of the given depth attached to its testbed, so
// findings carry frame traces (Finding.Trace). Zero disables. Safe to call
// concurrently, but intended for process start-up; campaigns already in
// flight keep the depth they started with.
func SetFleetRecorderDepth(depth int) {
	if depth < 0 {
		depth = 0
	}
	fleetRecorderDepth.Store(int32(depth))
}

// RunFleetJob is the canonical fleet.Runner: Run with the worker's
// observer attached, streaming phases into the pool and reporting the
// campaign's result once it ends. All experiment drivers schedule through
// it.
func RunFleetJob(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (FleetOutcome, error) {
	out, err := Run(tb, job, Options{
		OnPhase:             obs.Phase,
		FlightRecorderDepth: int(fleetRecorderDepth.Load()),
	})
	if err != nil {
		return FleetOutcome{}, err
	}
	obs.Report(out.Fuzz())
	return out, nil
}

// runCampaigns executes the jobs through the fleet with all-or-nothing
// semantics: every table needs every row, so the first failed job's error
// (in job order, deterministically) aborts the driver. Successful outcomes
// come back index-aligned with jobs. name identifies the campaign for
// checkpoint journals and must be stable across invocations.
//
// With cfg.Checkpoint set, execution goes through the crash-safe journal
// path in checkpoint.go: completed jobs are replayed instead of re-run,
// and a complete journal renders with nothing executed.
func runCampaigns(name string, jobs []fleet.Job, cfg fleet.Config) ([]FleetOutcome, error) {
	outs, err := func() ([]FleetOutcome, error) {
		if cfg.Checkpoint != nil && cfg.Checkpoint.Dir != "" {
			return runCheckpointed(name, jobs, cfg)
		}
		results := fleet.Run(jobs, RunFleetJob, cfg)
		if err := fleet.FirstError(results); err != nil {
			return nil, err
		}
		outs := make([]FleetOutcome, len(results))
		for i := range results {
			outs[i] = results[i].Value
		}
		return outs, nil
	}()
	if err != nil {
		return nil, err
	}
	if err := writeBugLog(outs); err != nil {
		return nil, err
	}
	return outs, nil
}
