package fleet_test

import (
	"errors"
	"testing"

	"zcover/internal/fleet"
	"zcover/internal/testbed"
)

// TestPersistFailureFailsJob: a journal that cannot be written must fail
// the job loudly, not report durable work that is not.
func TestPersistFailureFailsJob(t *testing.T) {
	runner := func(tb *testbed.Testbed, job fleet.Job, obs *fleet.Observer) (int, error) {
		return 1, nil
	}
	f := fleet.New([]fleet.Job{zcoverJob("j", "D1", 1)}, runner, fleet.Config{Workers: 1}).
		WithResume(func(i int, job fleet.Job, res fleet.Result[int]) error {
			return errors.New("disk full")
		})
	results := f.Run()
	if results[0].Err == nil {
		t.Fatal("persist failure swallowed")
	}
	if p := f.Progress(); p.Failed != 1 {
		t.Errorf("failed = %d, want 1", p.Failed)
	}
}
