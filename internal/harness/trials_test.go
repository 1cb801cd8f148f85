package harness

import (
	"testing"
	"time"

	"zcover/internal/fleet"
)

func TestRunTrialsStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial campaign; run without -short")
	}
	// Three 4-hour trials: enough budget that every D1 bug is reached in
	// each trial, so the discovery must be seed-stable.
	sum, err := RunTrials("D1", 3, 4*time.Hour, 100, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trials != 3 || len(sum.PerTrial) != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	for i, n := range sum.PerTrial {
		if n != 14 {
			t.Errorf("trial %d found %d, want 14", i+1, n)
		}
	}
	if !sum.Stable || sum.Union != 14 {
		t.Fatalf("trials not stable: %+v", sum)
	}
}

func TestRunTrialsRejectsBadCount(t *testing.T) {
	if _, err := RunTrials("D1", 0, time.Hour, 1, fleet.Config{}); err == nil {
		t.Fatal("accepted zero trials")
	}
}
