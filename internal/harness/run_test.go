package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zcover/internal/chaos"
	"zcover/internal/fleet"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// pinnedJobs is one job per branch of Run: each strategy of the
// generational engine, VFuzz, coverage mode, a chaos channel, patched
// firmware, and a binding frame cap on both frame-capped engines.
// testdata/parent-outcomes holds each job's EncodeOutcome bytes as
// produced by the three per-engine pipelines Run replaced.
var pinnedJobs = []fleet.Job{
	{Name: "zcover-full", Device: "D1", Strategy: fuzz.StrategyFull, Seed: 41, Budget: 5 * time.Minute},
	{Name: "zcover-beta", Device: "D1", Strategy: fuzz.StrategyKnownOnly, Seed: 41, Budget: 5 * time.Minute},
	{Name: "zcover-gamma", Device: "D1", Strategy: fuzz.StrategyRandom, Seed: 4, Budget: 5 * time.Minute},
	{Name: "vfuzz", Device: "D2", Baseline: true, Seed: 42, Budget: 5 * time.Minute},
	{Name: "coverage", Device: "D3", Strategy: fuzz.StrategyFull, FuzzMode: fleet.ModeCoverage, Seed: 43, Budget: 5 * time.Minute},
	{Name: "zcover-lossy", Device: "D4", Strategy: fuzz.StrategyFull, Seed: 44, Budget: 5 * time.Minute, ChaosProfile: "lossy", ChaosSeed: 49},
	{Name: "zcover-patched", Device: "D6", Patched: true, Strategy: fuzz.StrategyFull, Seed: 46, Budget: 5 * time.Minute},
	{Name: "zcover-frames", Device: "D5", Strategy: fuzz.StrategyFull, Seed: 45, Budget: 5 * time.Minute, Frames: 50},
	{Name: "coverage-frames", Device: "D1", Strategy: fuzz.StrategyFull, FuzzMode: fleet.ModeCoverage, Seed: 41, Budget: 5 * time.Minute, Frames: 50},
}

// TestRunReproducesParentOutcomes: Run's outcome for every pinned job is
// byte-identical to the one the replaced pipelines produced.
func TestRunReproducesParentOutcomes(t *testing.T) {
	run := func(tb *testbed.Testbed, job fleet.Job, _ *fleet.Observer) (FleetOutcome, error) {
		return Run(tb, job, Options{})
	}
	results := fleet.Run(pinnedJobs, run, fleet.Config{Workers: 2, MaxAttempts: 1})
	for i, res := range results {
		job := pinnedJobs[i]
		if res.Err != nil {
			t.Errorf("%s: %v", job.Name, res.Err)
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", "parent-outcomes", job.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeOutcome(res.Value)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: outcome differs from the pinned parent outcome:\n got %s\nwant %s", job.Name, got, want)
		}
	}
}

// TestFailedPhaseStillWritesItsSpan: a scan that finds nothing on a dead
// channel aborts the run, and the aborted phase still writes its span,
// marked with the error.
func TestFailedPhaseStillWritesItsSpan(t *testing.T) {
	dead, err := chaos.ParseProfile("lossy:goodloss=1,badloss=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []fleet.Job{
		{Name: "zcover", Device: "D1", Strategy: fuzz.StrategyFull, Seed: 41, Budget: time.Minute},
		{Name: "vfuzz", Device: "D1", Baseline: true, Seed: 41, Budget: time.Minute},
	} {
		t.Run(job.Name, func(t *testing.T) {
			tb, err := testbed.New(job.Device, job.Seed)
			if err != nil {
				t.Fatal(err)
			}
			tb.ApplyChaos(dead, 1)
			var trace bytes.Buffer
			var phases []string
			_, runErr := Run(tb, job, Options{
				Tracer:  telemetry.NewTracer(&trace, nil),
				OnPhase: func(p string) { phases = append(phases, p) },
			})
			if runErr == nil {
				t.Fatal("campaign on a dead channel succeeded")
			}
			if strings.Join(phases, ",") != "scan" {
				t.Errorf("phases = %v, want [scan]", phases)
			}
			events, err := telemetry.ReadTrace(&trace)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != 1 || events[0].Name != "scan" {
				t.Fatalf("trace = %+v, want one scan span", events)
			}
			if got := events[0].Attrs["error"]; got != runErr.Error() {
				t.Errorf("scan span error = %q, want %q", got, runErr.Error())
			}
		})
	}
}
