package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"

	"zcover/internal/report"
)

// HostInfo stamps a measurement with the hardware and build it came from,
// so bench trajectories stay attributable across machines.
type HostInfo struct {
	GitSHA     string `json:"git_sha,omitempty"`
	GoVersion  string `json:"go_version"`
	Gomaxprocs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// Host reads the current process's host stamp. gitSHA comes from the
// caller (scripts pass it; binaries have no business shelling out to git).
func Host(gitSHA string) HostInfo {
	return HostInfo{
		GitSHA:     gitSHA,
		GoVersion:  runtime.Version(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// BusyCPUSeconds returns the CPU time this process has spent running Go
// code and the runtime: runtime/metrics' total minus its idle class. The
// total alone is GOMAXPROCS integrated over wall time, so it cannot see
// contention. The runtime refreshes the CPU classes only at the end of a
// GC cycle, so BusyCPUSeconds forces one first; readings never decrease.
func BusyCPUSeconds() float64 {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64() - s[1].Value.Float64()
}

// ScalingRun is one measured fleet run of the scaling sweep.
type ScalingRun struct {
	WallSec float64 // wall-clock run time
	CPUSec  float64 // busy CPU time (BusyCPUSeconds delta)
	SimSec  float64 // simulated campaign time delivered
}

// ScalingPair is one workers=1 run ([0]) and one workers=2 run ([1]) of
// the same deterministic workload, taken back to back.
type ScalingPair [2]ScalingRun

// ScalingPoint summarises one worker count over the sweep's pairs.
type ScalingPoint struct {
	Workers int `json:"workers"`
	// WallSec and CPUSec are medians over the pairs; SimSec is the same
	// in every run, and SimRate is SimSec over WallSec.
	WallSec float64 `json:"wall_sec"`
	CPUSec  float64 `json:"cpu_sec"`
	SimSec  float64 `json:"sim_sec"`
	SimRate float64 `json:"sim_rate"`
	// Speedup (wall(1) / wall(2)) and CPUInflation (cpu(2) / cpu(1)) are
	// medians of the per-pair ratios, set on the workers=2 point only.
	// CPUInflation is what the scaling gate compares: work that shares
	// nothing costs the same CPU on one worker or two.
	Speedup      float64 `json:"speedup,omitempty"`
	CPUInflation float64 `json:"cpu_inflation,omitempty"`
}

// ScalingReport is the bench-scaling output: BENCH_scaling.json on disk,
// the workers=1/2 table on stdout.
type ScalingReport struct {
	Host     HostInfo       `json:"host"`
	Campaign string         `json:"campaign"`
	Points   []ScalingPoint `json:"points"`
}

// NewScalingReport reduces interleaved pairs of runs to the workers=1 and
// workers=2 points. The workload is deterministic, so every run must have
// delivered the same simulated seconds; a mismatch is an error.
func NewScalingReport(host HostInfo, campaign string, pairs []ScalingPair) (*ScalingReport, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("obs: scaling report needs at least one pair of runs")
	}
	sim := pairs[0][0].SimSec
	var wall1, wall2, cpu1, cpu2, speedup, inflation []float64
	for i, p := range pairs {
		for _, r := range p {
			if r.SimSec != sim {
				return nil, fmt.Errorf("obs: pair %d delivered %v simulated seconds, pair 0 %v: the sweep's workload is not deterministic", i, r.SimSec, sim)
			}
			if r.WallSec <= 0 || r.CPUSec <= 0 {
				return nil, fmt.Errorf("obs: pair %d has a non-positive reading: %+v", i, r)
			}
		}
		one, two := p[0], p[1]
		wall1, wall2 = append(wall1, one.WallSec), append(wall2, two.WallSec)
		cpu1, cpu2 = append(cpu1, one.CPUSec), append(cpu2, two.CPUSec)
		speedup = append(speedup, one.WallSec/two.WallSec)
		inflation = append(inflation, two.CPUSec/one.CPUSec)
	}
	point := func(workers int, wall, cpu []float64) ScalingPoint {
		w := median(wall)
		return ScalingPoint{Workers: workers, WallSec: w, CPUSec: median(cpu), SimSec: sim, SimRate: sim / w}
	}
	two := point(2, wall2, cpu2)
	two.Speedup, two.CPUInflation = median(speedup), median(inflation)
	return &ScalingReport{Host: host, Campaign: campaign, Points: []ScalingPoint{point(1, wall1, cpu1), two}}, nil
}

// median returns the middle value of xs (the mean of the middle two for
// an even count). xs is reordered.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// CPUInflation returns the workers=2 point's CPU inflation, or an error
// when the report has none: a report without a workers=2 point, or one
// written before the gate measured CPU, cannot serve as a baseline.
func (r *ScalingReport) CPUInflation() (float64, error) {
	for _, p := range r.Points {
		if p.Workers == 2 && p.CPUInflation > 0 {
			return p.CPUInflation, nil
		}
	}
	return 0, fmt.Errorf("obs: scaling report has no workers=2 cpu_inflation (missing point or old format); refresh the baseline with make bench-scaling")
}

// Table renders the workers=1 and workers=2 points.
func (r *ScalingReport) Table() string {
	t := &report.Table{
		Title:   fmt.Sprintf("Fleet scaling — %s (GOMAXPROCS %d, %d CPUs, %s)", r.Campaign, r.Host.Gomaxprocs, r.Host.NumCPU, r.Host.GoVersion),
		Headers: []string{"Workers", "Wall", "Busy CPU", "Sim-rate", "Speedup", "CPU inflation"},
	}
	ratio := func(x float64) string {
		if x == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", x)
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", p.Workers),
			fmt.Sprintf("%.2fs", p.WallSec),
			fmt.Sprintf("%.2fs", p.CPUSec),
			fmt.Sprintf("%.0f simsec/s", p.SimRate),
			ratio(p.Speedup), ratio(p.CPUInflation))
	}
	return t.String()
}

// WriteJSON writes the report as one indented JSON document.
func (r *ScalingReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (the BENCH_scaling.json artifact).
func (r *ScalingReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	err = r.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadScalingReport parses a report written by WriteJSON.
func ReadScalingReport(rd io.Reader) (*ScalingReport, error) {
	var r ScalingReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("obs: parsing scaling report: %w", err)
	}
	return &r, nil
}

// LoadScalingReport reads a report file.
func LoadScalingReport(path string) (*ScalingReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	return ReadScalingReport(f)
}

// CheckRegression fails when the fresh report's CPU inflation at
// workers=2 is more than maxRise (relative: 0.10 = 10%) above the
// baseline's. The ratio is the cost of running campaigns side by side
// and is not normalised by GOMAXPROCS. A report without the workers=2
// inflation is an error that asks for a refreshed baseline, not a
// regression.
func CheckRegression(baseline, fresh *ScalingReport, maxRise float64) error {
	b, err := baseline.CPUInflation()
	if err != nil {
		return err
	}
	f, err := fresh.CPUInflation()
	if err != nil {
		return err
	}
	if ceil := b * (1 + maxRise); f > ceil {
		return fmt.Errorf("obs: CPU inflation at workers=2 regressed: %.3f > %.3f (baseline %.3f + %.0f%% allowance)",
			f, ceil, b, maxRise*100)
	}
	return nil
}
