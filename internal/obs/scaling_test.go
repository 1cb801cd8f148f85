package obs_test

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"zcover/internal/obs"
)

// pairs builds three interleaved pairs whose per-pair CPU ratios (1.6,
// 1.8, 1.2) have a median, 1.6, that differs from the ratio of the median
// CPU readings (6.0 / 4 = 1.5).
func pairs() []obs.ScalingPair {
	run := func(wall, cpu float64) obs.ScalingRun {
		return obs.ScalingRun{WallSec: wall, CPUSec: cpu, SimSec: 1000}
	}
	return []obs.ScalingPair{ // {workers=1, workers=2}
		{run(4, 4), run(2.5, 6.4)},
		{run(3, 3), run(2, 5.4)},
		{run(5, 5), run(2.5, 6.0)},
	}
}

// report builds a gateable report with the given workers=2 CPU inflation.
func report(inflation float64) *obs.ScalingReport {
	return &obs.ScalingReport{
		Host:     obs.HostInfo{GoVersion: "go1.24.0", Gomaxprocs: 2, NumCPU: 2},
		Campaign: "test sweep",
		Points: []obs.ScalingPoint{
			{Workers: 1, WallSec: 4, CPUSec: 4, SimSec: 1000, SimRate: 250},
			{Workers: 2, WallSec: 2.5, CPUSec: 6, SimSec: 1000, SimRate: 400, Speedup: 1.6, CPUInflation: inflation},
		},
	}
}

func TestNewScalingReportTakesPairMedians(t *testing.T) {
	rep, err := obs.NewScalingReport(obs.Host("abc"), "test sweep", pairs())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points: %+v", rep.Points)
	}
	one, two := rep.Points[0], rep.Points[1]
	if want := (obs.ScalingPoint{Workers: 1, WallSec: 4, CPUSec: 4, SimSec: 1000, SimRate: 250}); one != want {
		t.Errorf("workers=1 point = %+v, want %+v", one, want)
	}
	if two.Workers != 2 || two.WallSec != 2.5 || two.CPUSec != 6.0 || two.SimRate != 400 {
		t.Errorf("workers=2 point = %+v", two)
	}
	if two.CPUInflation != 1.6 {
		t.Errorf("CPUInflation = %v, want 1.6 (the median per-pair ratio)", two.CPUInflation)
	}
	if two.Speedup != 1.6 { // per-pair 1.6, 1.5, 2.0
		t.Errorf("Speedup = %v, want 1.6", two.Speedup)
	}
	if got, err := rep.CPUInflation(); err != nil || got != 1.6 {
		t.Errorf("CPUInflation() = %v, %v", got, err)
	}

	// An even number of pairs takes the mean of the middle two ratios.
	rep, err = obs.NewScalingReport(obs.Host(""), "two pairs", pairs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Points[1].CPUInflation; got < 1.6999 || got > 1.7001 {
		t.Errorf("two-pair CPUInflation = %v, want 1.7", got)
	}
}

func TestNewScalingReportRejectsBadRuns(t *testing.T) {
	mismatch := pairs()
	mismatch[2][1].SimSec = 999
	if _, err := obs.NewScalingReport(obs.Host(""), "x", mismatch); err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Errorf("simulated-seconds mismatch: %v", err)
	}
	idle := pairs()
	idle[1][0].CPUSec = 0
	if _, err := obs.NewScalingReport(obs.Host(""), "x", idle); err == nil {
		t.Error("zero CPU reading accepted")
	}
	if _, err := obs.NewScalingReport(obs.Host(""), "x", nil); err == nil {
		t.Error("no pairs accepted")
	}
}

func TestCheckRegression(t *testing.T) {
	base := report(1.5)
	for _, fresh := range []float64{1.0, 1.5, 1.64} {
		if err := obs.CheckRegression(base, report(fresh), 0.10); err != nil {
			t.Errorf("inflation %v against 1.5: %v", fresh, err)
		}
	}
	err := obs.CheckRegression(base, report(1.66), 0.10)
	if err == nil || !strings.Contains(err.Error(), "regressed") || !strings.Contains(err.Error(), "baseline 1.500") {
		t.Errorf("inflation 1.66 against 1.5: %v, want a regression", err)
	}
	// The ratio is not normalised by GOMAXPROCS: reports from other host
	// shapes compare.
	wide := report(1.5)
	wide.Host.Gomaxprocs = 8
	if err := obs.CheckRegression(base, wide, 0.10); err != nil {
		t.Errorf("GOMAXPROCS 2 baseline vs 8 sweep: %v", err)
	}
}

// TestCheckRegressionNeedsWorkers2Point: a report without the workers=2
// inflation, including one in the old efficiency format, is an error that
// asks for a refreshed baseline, never a "regressed" verdict.
func TestCheckRegressionNeedsWorkers2Point(t *testing.T) {
	old, err := obs.ReadScalingReport(strings.NewReader(`{
  "host": {"go_version": "go1.24.0", "gomaxprocs": 1, "num_cpu": 1},
  "campaign": "table5 sweep, 14 jobs, 24h0m0s budget",
  "points": [
    {"workers": 1, "effective_workers": 1, "wall_sec": 2.5, "sim_sec": 1209607.1, "speedup": 1, "efficiency": 1},
    {"workers": 2, "effective_workers": 1, "wall_sec": 2.4, "sim_sec": 1209607.1, "speedup": 1.04, "efficiency": 1.04}
  ],
  "bottlenecks": [{"rank": 1, "kind": "host-parallelism", "detail": "GOMAXPROCS=1 < workers=8"}]
}`))
	if err != nil {
		t.Fatal(err)
	}
	onlyOne := report(1.5)
	onlyOne.Points = onlyOne.Points[:1]
	for name, bad := range map[string]*obs.ScalingReport{"old format": old, "workers=1 only": onlyOne, "empty": {}} {
		for _, err := range []error{
			obs.CheckRegression(bad, report(1.5), 0.10),
			obs.CheckRegression(report(1.5), bad, 0.10),
		} {
			if err == nil || strings.Contains(err.Error(), "regressed") || !strings.Contains(err.Error(), "refresh the baseline") {
				t.Errorf("%s: %v, want a refresh-the-baseline error", name, err)
			}
		}
	}
}

// TestCommittedReportIsGateable: the committed BENCH_scaling.json is the
// bar make bench-scaling and the nightly leg hold a fresh sweep to. It
// must come from a host where workers=2 runs two workers, hold both
// points, and pass its own gate.
func TestCommittedReportIsGateable(t *testing.T) {
	base, err := obs.LoadScalingReport("../../BENCH_scaling.json")
	if err != nil {
		t.Fatal(err)
	}
	if base.Host.Gomaxprocs < 2 {
		t.Errorf("committed report measured at GOMAXPROCS=%d, want >= 2", base.Host.Gomaxprocs)
	}
	if len(base.Points) != 2 || base.Points[0].Workers != 1 || base.Points[1].Workers != 2 {
		t.Errorf("committed report points: %+v, want workers=1 and workers=2", base.Points)
	}
	if err := obs.CheckRegression(base, base, 0.10); err != nil {
		t.Errorf("committed report fails its own gate: %v", err)
	}
}

func TestBusyCPUSecondsNeverDecreases(t *testing.T) {
	prev := obs.BusyCPUSeconds()
	first := prev
	sink := 0
	for i := 0; i < 5; i++ {
		for j := 0; j < 2_000_000; j++ {
			sink += j ^ i
		}
		cur := obs.BusyCPUSeconds()
		if cur < prev {
			t.Fatalf("reading %d went backwards: %v < %v", i, cur, prev)
		}
		prev = cur
	}
	if prev <= first {
		t.Errorf("busy CPU did not grow over a busy loop: %v -> %v (sink %d)", first, prev, sink)
	}
}

// TestBusyCPUSecondsExcludesIdle: with two Ps and one busy goroutine,
// busy CPU tracks one P's worth of wall time, not GOMAXPROCS × wall as
// /cpu/classes/total alone would.
func TestBusyCPUSecondsExcludesIdle(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	start := time.Now()
	cpu := obs.BusyCPUSeconds()
	sink := 0
	for time.Since(start) < 100*time.Millisecond {
		sink++
	}
	cpu = obs.BusyCPUSeconds() - cpu
	wall := time.Since(start).Seconds()
	if cpu > 1.6*wall || cpu < 0.5*wall {
		t.Errorf("busy CPU %.3fs over %.3fs of wall with one busy goroutine on 2 Ps (sink %d)", cpu, wall, sink)
	}
}

func TestScalingReportFileRoundTrip(t *testing.T) {
	r := report(1.5)
	path := filepath.Join(t.TempDir(), "scaling.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := obs.LoadScalingReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 2 || back.Points[1] != r.Points[1] || back.Host != r.Host {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestScalingTableRenders(t *testing.T) {
	out := report(1.5).Table()
	for _, want := range []string{"Fleet scaling", "GOMAXPROCS 2", "Busy CPU", "CPU inflation", "1.50x"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestHostStamp(t *testing.T) {
	h := obs.Host("abc1234")
	if h.GitSHA != "abc1234" || h.Gomaxprocs < 1 || h.NumCPU < 1 || h.GoVersion == "" {
		t.Errorf("host stamp: %+v", h)
	}
}
