package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"zcover/internal/report"
)

// HostInfo stamps a measurement with the hardware and build it came from,
// so bench trajectories stay attributable across machines (a flat scaling
// curve on a 1-core container and on a 32-core server mean very different
// things).
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

// ScalingPoint is one worker-count measurement of the campaign fleet.
type ScalingPoint struct {
	// Workers is the requested worker count; EffectiveWorkers is what the
	// fleet actually ran after capping at GOMAXPROCS.
	Workers          int `json:"workers"`
	EffectiveWorkers int `json:"effective_workers"`
	// WallSec is the fleet's wall-clock run time; SimSec the simulated
	// campaign time it delivered; SimRate their ratio (simsec/s).
	WallSec float64 `json:"wall_sec"`
	SimSec  float64 `json:"sim_sec"`
	SimRate float64 `json:"sim_rate"`
	// Speedup is SimRate over the workers=1 point's. IdealSpeedup is the
	// host's best case: min(workers, GOMAXPROCS). Efficiency is their
	// ratio — 1.0 means the fleet extracts everything the host offers.
	Speedup      float64 `json:"speedup"`
	IdealSpeedup float64 `json:"ideal_speedup"`
	Efficiency   float64 `json:"efficiency"`
	// Phases is wall time by phase across all workers, descending.
	Phases []PhaseShare `json:"phases,omitempty"`
	// IdleSec sums worker idle time (waiting for jobs or drained).
	IdleSec float64 `json:"idle_sec"`
	// GCPauseNs is the GC stop-the-world total accumulated during the
	// point's run.
	GCPauseNs int64 `json:"gc_pause_ns,omitempty"`
}

// Bottleneck is one ranked serialization source.
type Bottleneck struct {
	Rank int `json:"rank"`
	// Kind classifies the source: "host-parallelism", "phase", "lock",
	// "gc", "imbalance".
	Kind string `json:"kind"`
	// Detail names the concrete source ("fuzz loop", a lock site, ...).
	Detail string `json:"detail"`
	// WallShare is the fraction of fleet wall time attributed to it
	// (0 when the evidence is not a wall share).
	WallShare float64 `json:"wall_share,omitempty"`
	// Evidence is the measured justification, human-readable.
	Evidence string `json:"evidence"`
}

// ScalingReport is the bench-scaling output: BENCH_scaling.json on disk,
// the ranked bottleneck table on stdout.
type ScalingReport struct {
	Host        HostInfo       `json:"host"`
	Campaign    string         `json:"campaign"`
	Points      []ScalingPoint `json:"points"`
	Bottlenecks []Bottleneck   `json:"bottlenecks"`
	// Locks is the contended-lock table from the mutex profile (empty
	// when contention profiling found nothing — the healthy case).
	Locks []LockSite `json:"locks,omitempty"`
}

// baseline returns the first workers=1 point, or nil.
func (r *ScalingReport) baseline() *ScalingPoint {
	for i := range r.Points {
		if r.Points[i].Workers == 1 {
			return &r.Points[i]
		}
	}
	return nil
}

// maxPoint returns the first point with the highest worker count, or nil.
// The first wins a tie: reports written before the worker cap became
// unconditional end with an extra uncapped point at the top count, and
// the capped point before it is the one to gate on.
func (r *ScalingReport) maxPoint() *ScalingPoint {
	var best *ScalingPoint
	for i := range r.Points {
		if p := &r.Points[i]; best == nil || p.Workers > best.Workers {
			best = p
		}
	}
	return best
}

// Finalize computes the derived fields (speedup, efficiency) and the
// deterministic bottleneck ranking from the raw points. Call it once
// after the points, locks, and host stamp are filled in.
func (r *ScalingReport) Finalize() {
	base := r.baseline()
	for i := range r.Points {
		p := &r.Points[i]
		if p.WallSec > 0 {
			p.SimRate = p.SimSec / p.WallSec
		}
		p.IdealSpeedup = float64(min(p.Workers, r.Host.Gomaxprocs))
		if p.IdealSpeedup < 1 {
			p.IdealSpeedup = 1
		}
		if base != nil && base.SimRate > 0 {
			p.Speedup = p.SimRate / base.SimRate
			p.Efficiency = p.Speedup / p.IdealSpeedup
		}
	}
	r.rank()
}

// rank orders the measured serialization sources, most wall time first.
// The ranking is pure arithmetic over the points — rerunning the sweep on
// the same data reproduces it exactly.
func (r *ScalingReport) rank() {
	r.Bottlenecks = nil
	maxp := r.maxPoint()
	base := r.baseline()
	if maxp == nil || base == nil {
		return
	}

	// Host parallelism: when the sweep asks for more workers than the
	// runtime can schedule, the processor count — not any lock — is the
	// binding serializer. This is the finding that explains a flat curve
	// on a small host.
	if maxp.Workers > r.Host.Gomaxprocs {
		share := 0.0
		if maxp.IdealSpeedup > 0 && float64(maxp.Workers) > 0 {
			share = 1 - maxp.IdealSpeedup/float64(maxp.Workers)
		}
		r.Bottlenecks = append(r.Bottlenecks, Bottleneck{
			Kind:      "host-parallelism",
			Detail:    fmt.Sprintf("GOMAXPROCS=%d < workers=%d", r.Host.Gomaxprocs, maxp.Workers),
			WallShare: share,
			Evidence: fmt.Sprintf("ideal speedup capped at %.0fx on this host; measured %.2fx (efficiency %.2f)",
				maxp.IdealSpeedup, maxp.Speedup, maxp.Efficiency),
		})
	}

	// Idle tail (load imbalance / queue starvation): idle share of the
	// max-worker point's total worker time.
	{
		totalWorkerSec := maxp.WallSec * float64(maxp.EffectiveWorkers)
		if totalWorkerSec > 0 && maxp.IdleSec/totalWorkerSec > 0.10 {
			r.Bottlenecks = append(r.Bottlenecks, Bottleneck{
				Kind:      "imbalance",
				Detail:    fmt.Sprintf("worker idle tail at workers=%d", maxp.Workers),
				WallShare: maxp.IdleSec / totalWorkerSec,
				Evidence: fmt.Sprintf("%.1fs of %.1fs worker time idle (%.0f%%) — stragglers or queue starvation",
					maxp.IdleSec, totalWorkerSec, 100*maxp.IdleSec/totalWorkerSec),
			})
		}
	}

	// Dominant phase: where the busy wall time actually goes, so the
	// next optimization target is named even when scaling is healthy.
	for _, ps := range maxp.Phases {
		if ps.Phase == PhaseIdle {
			continue
		}
		r.Bottlenecks = append(r.Bottlenecks, Bottleneck{
			Kind:      "phase",
			Detail:    fmt.Sprintf("%s phase", ps.Phase),
			WallShare: ps.Share,
			Evidence:  fmt.Sprintf("%.1fs of worker wall time (%.0f%% of all phases) at workers=%d", ps.WallSec, ps.Share*100, maxp.Workers),
		})
		break // only the dominant one; the full breakdown is in Points
	}

	// Contended locks: anything the mutex profile caught.
	for i, ls := range r.Locks {
		if i >= 3 || ls.Count == 0 {
			break
		}
		r.Bottlenecks = append(r.Bottlenecks, Bottleneck{
			Kind:     "lock",
			Detail:   ls.Site,
			Evidence: fmt.Sprintf("%d sampled contentions, %d delay cycles", ls.Count, ls.DelayCycles),
		})
	}

	// GC stop-the-world share.
	if maxp.GCPauseNs > 0 && maxp.WallSec > 0 {
		share := float64(maxp.GCPauseNs) / 1e9 / maxp.WallSec
		if share > 0.02 {
			r.Bottlenecks = append(r.Bottlenecks, Bottleneck{
				Kind:      "gc",
				Detail:    "garbage-collector stop-the-world",
				WallShare: share,
				Evidence:  fmt.Sprintf("%.1fms STW over %.1fs wall (%.1f%%)", float64(maxp.GCPauseNs)/1e6, maxp.WallSec, share*100),
			})
		}
	}

	// Rank true serializers (host limits, locks, GC, imbalance) by wall
	// share; the dominant-phase entry is attribution — where healthy busy
	// time goes — so it sorts after them. Ties break by kind then detail
	// for determinism.
	sort.SliceStable(r.Bottlenecks, func(i, j int) bool {
		bi, bj := r.Bottlenecks[i], r.Bottlenecks[j]
		if (bi.Kind == "phase") != (bj.Kind == "phase") {
			return bj.Kind == "phase"
		}
		if bi.WallShare != bj.WallShare {
			return bi.WallShare > bj.WallShare
		}
		if bi.Kind != bj.Kind {
			return bi.Kind < bj.Kind
		}
		return bi.Detail < bj.Detail
	})
	for i := range r.Bottlenecks {
		r.Bottlenecks[i].Rank = i + 1
	}
}

// Table renders the scaling points and the ranked bottleneck list.
func (r *ScalingReport) Table() string {
	pts := &report.Table{
		Title:   fmt.Sprintf("Fleet scaling — %s (GOMAXPROCS %d, %d CPUs, %s)", r.Campaign, r.Host.Gomaxprocs, r.Host.NumCPU, r.Host.GoVersion),
		Headers: []string{"Workers", "Effective", "Wall", "Sim-rate", "Speedup", "Ideal", "Efficiency", "Idle"},
	}
	for _, p := range r.Points {
		pts.AddRow(fmt.Sprintf("%d", p.Workers), fmt.Sprintf("%d", p.EffectiveWorkers),
			fmt.Sprintf("%.2fs", p.WallSec),
			fmt.Sprintf("%.0f simsec/s", p.SimRate),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.0fx", p.IdealSpeedup),
			fmt.Sprintf("%.2f", p.Efficiency),
			fmt.Sprintf("%.2fs", p.IdleSec))
	}
	btl := &report.Table{
		Title:   "Ranked serialization sources",
		Headers: []string{"#", "Kind", "Source", "Wall share", "Evidence"},
	}
	for _, b := range r.Bottlenecks {
		share := "-"
		if b.WallShare > 0 {
			share = fmt.Sprintf("%.0f%%", b.WallShare*100)
		}
		btl.AddRow(fmt.Sprintf("%d", b.Rank), b.Kind, b.Detail, share, b.Evidence)
	}
	return pts.String() + "\n" + btl.String()
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

// CheckRegression compares a fresh report's parallel efficiency at its
// highest worker count against a committed baseline and errors when it
// dropped by more than maxDrop (relative: 0.10 = 10%). Efficiency is
// normalized to the host's ideal speedup, min(workers, GOMAXPROCS), which
// does not make hosts of different shapes comparable: at GOMAXPROCS=1
// every point runs one worker and efficiency is about 1 by construction.
// Reports stamped with different GOMAXPROCS are therefore an error, not a
// regression; refresh the baseline on the runner shape that gates on it.
func CheckRegression(baseline, fresh *ScalingReport, maxDrop float64) error {
	bp, fp := baseline.maxPoint(), fresh.maxPoint()
	if bp == nil || fp == nil {
		return fmt.Errorf("obs: scaling report missing measurement points")
	}
	if b, f := baseline.Host.Gomaxprocs, fresh.Host.Gomaxprocs; b != f {
		return fmt.Errorf("obs: scaling baseline was measured at GOMAXPROCS=%d but this sweep ran at GOMAXPROCS=%d; "+
			"efficiency only compares on one host shape, so refresh the baseline report on a GOMAXPROCS=%d runner", b, f, f)
	}
	if bp.Efficiency <= 0 {
		return fmt.Errorf("obs: baseline efficiency is zero; refresh the committed BENCH_scaling.json")
	}
	floor := bp.Efficiency * (1 - maxDrop)
	if fp.Efficiency < floor {
		return fmt.Errorf("obs: parallel efficiency at workers=%d regressed: %.3f < %.3f (baseline %.3f − %.0f%% allowance)",
			fp.Workers, fp.Efficiency, floor, bp.Efficiency, maxDrop*100)
	}
	return nil
}
