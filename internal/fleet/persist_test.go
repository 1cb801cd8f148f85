package fleet_test

import (
	"errors"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// TestPersistFailureFailsJob: a journal that cannot be written must fail
// the job loudly, not report durable work that is not — neither in its
// Result nor in Progress, which counts nothing of a failed job.
func TestPersistFailureFailsJob(t *testing.T) {
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		obs.Report(&fuzz.Result{Findings: make([]fuzz.Finding, 1), PacketsSent: 100, Elapsed: time.Hour})
		return 1, nil
	}
	var last fleet.Progress
	f := fleet.New([]fleet.Job{zcoverJob("j", "D1", 1)}, runner,
		fleet.Config{Workers: 1, OnProgress: func(p fleet.Progress) { last = p }}).
		WithResume(func(i int, job fleet.Job, res fleet.Result[int]) error {
			return errors.New("disk full")
		})
	results := f.Run()
	if results[0].Err == nil {
		t.Fatal("persist failure swallowed")
	}
	if last.Failed != 1 || last.Done != 0 {
		t.Errorf("failed/done = %d/%d, want 1/0", last.Failed, last.Done)
	}
	if last.Findings != 0 || last.Packets != 0 || last.SimTime != 0 {
		t.Errorf("unpersisted job counted: findings=%d packets=%d sim=%s",
			last.Findings, last.Packets, last.SimTime)
	}
}
