package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/oracle"
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
// channel aborts the run, and the fleet's trace still holds the aborted
// phase's span, carrying the attempt's error, after the failed job's span.
func TestFailedPhaseStillWritesItsSpan(t *testing.T) {
	const dead = "lossy:goodloss=1,badloss=1"
	for _, job := range []fleet.Job{
		{Name: "zcover", Device: "D1", Strategy: fuzz.StrategyFull, Seed: 41, Budget: time.Minute, ChaosProfile: dead, ChaosSeed: 1},
		{Name: "vfuzz", Device: "D1", Baseline: true, Seed: 41, Budget: time.Minute, ChaosProfile: dead, ChaosSeed: 1},
	} {
		t.Run(job.Name, func(t *testing.T) {
			var trace bytes.Buffer
			res := fleet.Run([]fleet.Job{job}, RunFleetJob, fleet.Config{
				Workers: 1, MaxAttempts: 1, Tracer: telemetry.NewTracer(&trace, nil),
			})[0]
			if res.Err == nil {
				t.Fatal("campaign on a dead channel succeeded")
			}
			events, err := telemetry.ReadTrace(&trace)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != 2 || events[0].Attrs["outcome"] != "failed" || events[1].Name != "scan" {
				t.Fatalf("trace = %+v, want the failed job's span and one scan span", events)
			}
			if got, want := events[1].Attrs["error"], res.AttemptErrors[0]; got != want {
				t.Errorf("scan span error = %q, want %q", got, want)
			}
			if !events[1].End.After(events[1].Start) {
				t.Errorf("scan span has no sim duration: %+v", events[1])
			}
		})
	}
}

// TestRunRejectsNonPositiveBudget: a zero or negative budget is an error
// before the scan phase, not a silent 24 h campaign.
func TestRunRejectsNonPositiveBudget(t *testing.T) {
	for _, job := range []fleet.Job{
		{Strategy: fuzz.StrategyFull, Seed: 41},
		{Strategy: fuzz.StrategyFull, Seed: 41, Budget: -time.Hour},
		{Baseline: true, Seed: 41, Budget: -time.Hour},
		{FuzzMode: fleet.ModeCoverage, Seed: 41, Budget: -time.Hour},
	} {
		tb, err := testbed.New("D1", 41)
		if err != nil {
			t.Fatal(err)
		}
		start := tb.Clock.Now()
		if _, err := Run(tb, job, Options{}); err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("budget %s: err = %v, want a budget error", job.Budget, err)
		}
		if !tb.Clock.Now().Equal(start) {
			t.Errorf("budget %s: the run advanced the clock before failing", job.Budget)
		}
	}
}

// vfuzzJob is a one-hour VFuzz campaign on D2, whose MAC-layer bugs it
// finds within the hour.
var vfuzzJob = fleet.Job{Device: "D2", Baseline: true, Seed: 41, Budget: time.Hour}

// TestRunVFuzzFindingsCarryTraces: with a flight recorder attached, VFuzz
// findings carry the frames around their trigger, as ZCover's do.
func TestRunVFuzzFindingsCarryTraces(t *testing.T) {
	tb, err := testbed.New(vfuzzJob.Device, vfuzzJob.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(tb, vfuzzJob, Options{FlightRecorderDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Baseline.Findings) == 0 {
		t.Fatal("VFuzz found nothing on D2")
	}
	for _, f := range out.Baseline.Findings {
		if len(f.Trace) == 0 {
			t.Errorf("%s: no trace", f.Signature)
		}
	}
}

// TestRunVFuzzStopsAtFrameBudget: a job's frame cap binds VFuzz too.
func TestRunVFuzzStopsAtFrameBudget(t *testing.T) {
	job := vfuzzJob
	job.Frames = 50
	tb, err := testbed.New(job.Device, job.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(tb, job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Baseline; res.PacketsSent != job.Frames || res.Elapsed >= job.Budget {
		t.Fatalf("sent %d frames in %s, want %d frames before the %s budget", res.PacketsSent, res.Elapsed, job.Frames, job.Budget)
	}
}

// TestRunVFuzzGradesFindingsUnderChaos: on an impaired channel VFuzz
// findings whose observation window overlaps injected faults are graded
// suspect, and the triple liveness probe keeps lost pings from reading
// as outages, so VFuzz keeps most of its clean-channel test rate.
func TestRunVFuzzGradesFindingsUnderChaos(t *testing.T) {
	job := vfuzzJob
	job.ChaosProfile, job.ChaosSeed = "lossy", 7
	res := fleet.Run([]fleet.Job{job}, RunFleetJob, fleet.Config{Workers: 1, MaxAttempts: 1})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	suspect := 0
	for _, f := range res.Value.Baseline.Findings {
		if f.Event.Confidence == oracle.ConfidenceSuspect {
			suspect++
		}
	}
	if suspect == 0 {
		t.Errorf("no suspect finding among %d on a lossy channel", len(res.Value.Baseline.Findings))
	}
	// A clean VFuzz test cycle is 1.1 s; each lost single probe would add
	// a 5 s recovery wait.
	if sent := res.Value.Baseline.PacketsSent; sent < 1700 {
		t.Errorf("sent %d frames in %s on a lossy channel, want >= 1700", sent, job.Budget)
	}
}
