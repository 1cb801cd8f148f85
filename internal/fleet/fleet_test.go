package fleet_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/oracle"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// jobSpec builds a short ZCover job for pool-mechanics tests.
func zcoverJob(name, device string, seed int64) fleet.Job {
	return fleet.Job{
		Name: name, Device: device,
		Strategy: fuzz.StrategyFull, Seed: seed, Budget: 2 * time.Minute,
	}
}

func TestRunPreservesJobOrder(t *testing.T) {
	jobs := []fleet.Job{
		zcoverJob("a", "D1", 1), zcoverJob("b", "D2", 2), zcoverJob("c", "D3", 3),
	}
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (string, error) {
		return job.Name + "/" + job.Device, nil
	}
	results := fleet.Run(jobs, runner, fleet.Config{Workers: 3})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, want := range []string{"a/D1", "b/D2", "c/D3"} {
		if results[i].Err != nil {
			t.Fatalf("job %d failed: %v", i, results[i].Err)
		}
		if results[i].Value != want {
			t.Errorf("results[%d] = %q, want %q (completion order must not leak)", i, results[i].Value, want)
		}
		if results[i].Attempts != 1 {
			t.Errorf("results[%d].Attempts = %d, want 1", i, results[i].Attempts)
		}
	}
	if err := fleet.FirstError(results); err != nil {
		t.Errorf("FirstError = %v, want nil", err)
	}
}

// TestDeterministicAcrossWorkerCounts is the core fleet invariant: the
// same job list with the same seeds yields identical results whether the
// campaigns run sequentially or across eight workers.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := []fleet.Job{
		zcoverJob("d1", "D1", 41),
		zcoverJob("d2", "D2", 42),
		{Name: "d1-vfuzz", Device: "D1", Baseline: true, Seed: 41, Budget: 2 * time.Minute},
		{Name: "d3-beta", Device: "D3", Strategy: fuzz.StrategyKnownOnly, Seed: 43, Budget: 2 * time.Minute},
	}
	run := func(workers int) []fleet.Result[harness.FleetOutcome] {
		return fleet.Run(jobs, harness.RunFleetJob, fleet.Config{Workers: workers})
	}
	seq := run(1)
	par := run(8)
	if err := fleet.FirstError(seq); err != nil {
		t.Fatalf("sequential run failed: %v", err)
	}
	if err := fleet.FirstError(par); err != nil {
		t.Fatalf("parallel run failed: %v", err)
	}
	for i := range jobs {
		if seq[i].Attempts != par[i].Attempts {
			t.Errorf("job %s: attempts %d (workers=1) vs %d (workers=8)",
				jobs[i].Name, seq[i].Attempts, par[i].Attempts)
		}
		if !reflect.DeepEqual(seq[i].Value, par[i].Value) {
			t.Errorf("job %s: campaign outcome differs between workers=1 and workers=8", jobs[i].Name)
		}
	}
}

func TestPanicIsolationAndRetry(t *testing.T) {
	var boomAttempts atomic.Int64
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		if job.Name == "boom" && boomAttempts.Add(1) == 1 {
			panic("simulated campaign crash")
		}
		return int(job.Seed), nil
	}
	jobs := []fleet.Job{zcoverJob("ok1", "D1", 10), zcoverJob("boom", "D2", 20), zcoverJob("ok2", "D3", 30)}
	results := fleet.Run(jobs, runner, fleet.Config{Workers: 2, MaxAttempts: 2})

	if err := fleet.FirstError(results); err != nil {
		t.Fatalf("retry should have rescued the panicking job: %v", err)
	}
	if results[1].Attempts != 2 {
		t.Errorf("boom job ran %d attempts, want 2", results[1].Attempts)
	}
	if len(results[1].AttemptErrors) != 1 || results[1].AttemptErrors[0] != "campaign panicked: simulated campaign crash" {
		t.Errorf("AttemptErrors = %q", results[1].AttemptErrors)
	}
	for _, i := range []int{0, 2} {
		if results[i].Attempts != 1 || results[i].Value != int(jobs[i].Seed) {
			t.Errorf("job %s was disturbed by its neighbour's panic: %+v", jobs[i].Name, results[i])
		}
	}
}

func TestRetryExhaustionReportsPanicError(t *testing.T) {
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		panic(fmt.Sprintf("always broken: %s", job.Name))
	}
	results := fleet.Run([]fleet.Job{zcoverJob("doomed", "D1", 1)}, runner,
		fleet.Config{Workers: 1, MaxAttempts: 3})
	r := results[0]
	if r.Err == nil {
		t.Fatal("job must fail after exhausting attempts")
	}
	if r.Attempts != 3 || len(r.AttemptErrors) != 3 {
		t.Errorf("attempts = %d, attempt errors = %d, want 3/3", r.Attempts, len(r.AttemptErrors))
	}
	var pe *fleet.PanicError
	if !errors.As(r.Err, &pe) {
		t.Fatalf("Err %v does not unwrap to *PanicError", r.Err)
	}
	if pe.Stack == "" {
		t.Error("recovered panic lost its stack")
	}
}

func TestRetryGetsFreshTestbed(t *testing.T) {
	var attempts atomic.Int64
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		if len(tb.Bus.Events()) != 0 {
			t.Error("retry observed oracle events from a previous attempt")
		}
		if tb.Bus.Subscribers() != 0 {
			t.Error("retry observed leaked bus subscribers from a previous attempt")
		}
		tb.Bus.Emit(oracle.Event{Device: job.Device, Kind: oracle.HostCrash})
		if attempts.Add(1) == 1 {
			return 0, errors.New("transient failure")
		}
		return 1, nil
	}
	results := fleet.Run([]fleet.Job{zcoverJob("j", "D1", 7)}, runner,
		fleet.Config{Workers: 1, MaxAttempts: 2})
	if results[0].Err != nil {
		t.Fatalf("second attempt should succeed: %v", results[0].Err)
	}
	if results[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", results[0].Attempts)
	}
}

func TestUnknownDeviceFailsAfterAttempts(t *testing.T) {
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		t.Error("runner must not be called when the testbed cannot be built")
		return 0, nil
	}
	results := fleet.Run([]fleet.Job{zcoverJob("bad", "D99", 1)}, runner, fleet.Config{Workers: 1})
	if results[0].Err == nil {
		t.Fatal("unknown device must fail the job")
	}
	if results[0].Attempts != fleet.DefaultMaxAttempts {
		t.Errorf("attempts = %d, want default %d", results[0].Attempts, fleet.DefaultMaxAttempts)
	}
}

// TestProgressCountersAndRollback: a failed attempt's report is dropped
// with its observer, so the flaky job's retry counts once and the totals
// hold exactly the two successful attempts.
func TestProgressCountersAndRollback(t *testing.T) {
	var failedOnce atomic.Bool
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		obs.Report(&fuzz.Result{Findings: make([]fuzz.Finding, 2), PacketsSent: 100, Elapsed: time.Hour})
		if job.Name == "flaky" && !failedOnce.Swap(true) {
			return 0, errors.New("first attempt dies after reporting metrics")
		}
		return 1, nil
	}
	// OnProgress calls are serialized, and the last one happens before Run
	// returns, so last needs no lock.
	var last fleet.Progress
	results := fleet.Run([]fleet.Job{zcoverJob("steady", "D1", 1), zcoverJob("flaky", "D2", 2)},
		runner, fleet.Config{Workers: 1, MaxAttempts: 2, OnProgress: func(p fleet.Progress) { last = p }})
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}

	if !last.Finished() || last.Done != 2 || last.Failed != 0 || last.Total != 2 || last.Queued != 0 {
		t.Errorf("final progress %+v", last)
	}
	if last.Retried != 1 {
		t.Errorf("retried = %d, want 1", last.Retried)
	}
	if last.Findings != 4 || last.Packets != 200 || last.SimTime != 2*time.Hour {
		t.Errorf("failed attempt counted: findings=%d packets=%d sim=%s",
			last.Findings, last.Packets, last.SimTime)
	}
	if last.Wall <= 0 {
		t.Errorf("wall = %s, want > 0", last.Wall)
	}
}

func TestLiveMetricsFlowThroughHarnessRunner(t *testing.T) {
	var last fleet.Progress
	results := fleet.Run([]fleet.Job{zcoverJob("live", "D1", 41)}, harness.RunFleetJob,
		fleet.Config{Workers: 1, OnProgress: func(p fleet.Progress) { last = p }})
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	res := results[0].Value.Fuzz()
	if last.Findings != len(res.Findings) {
		t.Errorf("progress findings = %d, campaign found %d", last.Findings, len(res.Findings))
	}
	if last.Packets != int64(res.PacketsSent) {
		t.Errorf("progress packets = %d, campaign sent %d", last.Packets, res.PacketsSent)
	}
	if last.SimTime != res.Elapsed {
		t.Errorf("progress sim time = %s, campaign elapsed %s", last.SimTime, res.Elapsed)
	}
	if len(res.Findings) == 0 {
		t.Error("2-minute D1 campaign found nothing; live-metric test is vacuous")
	}
}

func TestJobLabel(t *testing.T) {
	cases := []struct {
		job  fleet.Job
		want string
	}{
		{fleet.Job{Name: "explicit", Device: "D1"}, "explicit"},
		{fleet.Job{Device: "D2", Strategy: fuzz.StrategyFull}, "D2/zcover-full"},
		{fleet.Job{Device: "D3", Baseline: true}, "D3/vfuzz"},
		{fleet.Job{Device: "D4", FuzzMode: fleet.ModeCoverage}, "D4/covfuzz"},
		{fleet.Job{Device: "D5", Strategy: fuzz.StrategyFull, ChaosProfile: "burst"}, "D5/zcover-full+burst"},
	}
	for _, c := range cases {
		if got := c.job.Label(); got != c.want {
			t.Errorf("Label() = %q, want %q", got, c.want)
		}
	}
}

// TestJobBuildAppliesSpec: the fleet builds each attempt's testbed from
// the job spec — patched firmware and a fault injector when asked — and a
// chaos profile that does not parse fails the job before the runner runs.
func TestJobBuildAppliesSpec(t *testing.T) {
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (bool, error) {
		return tb.Chaos != nil, nil
	}
	jobs := []fleet.Job{
		{Name: "patched+lossy", Device: "D1", Patched: true, ChaosProfile: "lossy", ChaosSeed: 3},
		{Name: "clean", Device: "D1"},
		{Name: "bogus", Device: "D1", ChaosProfile: "no-such-profile"},
	}
	results := fleet.Run(jobs, runner, fleet.Config{Workers: 1, MaxAttempts: 1})
	if results[0].Err != nil || !results[0].Value {
		t.Errorf("patched+lossy: chaos installed = %v, err = %v", results[0].Value, results[0].Err)
	}
	if results[1].Err != nil || results[1].Value {
		t.Errorf("clean: chaos installed = %v, err = %v", results[1].Value, results[1].Err)
	}
	if results[2].Err == nil {
		t.Error("unparsable chaos profile did not fail the job")
	}
}

// TestObserverNilSafe: a runner called outside a fleet (nil observer)
// may still report phases and results.
func TestObserverNilSafe(t *testing.T) {
	var ob *fleet.Observer
	ob.Phase("scan")
	ob.Report(&fuzz.Result{PacketsSent: 1})
}

func TestNewRejectsNilRunner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted a nil runner")
		}
	}()
	fleet.New[int](nil, nil, fleet.Config{})
}
