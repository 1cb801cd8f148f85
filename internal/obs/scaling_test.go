package obs_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"zcover/internal/obs"
)

// report builds a 1-P host report shaped like the committed
// BENCH_scaling.json: flat points, every worker count capped at one.
func report() *obs.ScalingReport {
	return &obs.ScalingReport{
		Host:     obs.HostInfo{GoVersion: "go1.24.0", Gomaxprocs: 1, NumCPU: 1},
		Campaign: "test sweep",
		Points: []obs.ScalingPoint{
			{Workers: 1, EffectiveWorkers: 1, WallSec: 10, SimSec: 4000},
			{Workers: 8, EffectiveWorkers: 1, WallSec: 10, SimSec: 3960},
		},
	}
}

func TestFinalizeDerivesEfficiency(t *testing.T) {
	r := report()
	r.Points[1].Phases = []obs.PhaseShare{{Phase: obs.PhaseFuzz, WallSec: 8, Share: 0.8}}
	r.Finalize()

	base := r.Points[0]
	if base.SimRate != 400 || base.Speedup != 1 || base.Efficiency != 1 {
		t.Errorf("baseline point: %+v", base)
	}
	capped := r.Points[1]
	// 8 workers on a 1-P host: ideal speedup is 1, so efficiency equals
	// raw speedup — host-portable normalization.
	if capped.IdealSpeedup != 1 {
		t.Errorf("IdealSpeedup = %v, want 1 (GOMAXPROCS=1)", capped.IdealSpeedup)
	}
	if capped.Efficiency < 0.98 || capped.Efficiency > 1 {
		t.Errorf("Efficiency = %v, want ~0.99", capped.Efficiency)
	}
}

func TestRankNamesHostParallelism(t *testing.T) {
	r := report()
	r.Points[1].Phases = []obs.PhaseShare{{Phase: obs.PhaseFuzz, WallSec: 8, Share: 0.8}}
	r.Finalize()

	if len(r.Bottlenecks) < 2 {
		t.Fatalf("bottlenecks: %+v", r.Bottlenecks)
	}
	kinds := map[string]bool{}
	for i, b := range r.Bottlenecks {
		if b.Rank != i+1 {
			t.Errorf("rank %d at index %d", b.Rank, i)
		}
		kinds[b.Kind] = true
	}
	for _, want := range []string{"host-parallelism", "phase"} {
		if !kinds[want] {
			t.Errorf("missing %q bottleneck: %+v", want, r.Bottlenecks)
		}
	}
	// The #1 entry must be a serializer, not phase attribution.
	if r.Bottlenecks[0].Kind == "phase" {
		t.Errorf("phase attribution ranked #1: %+v", r.Bottlenecks[0])
	}
	// Determinism: re-ranking the same data reproduces the order.
	order := func(r *obs.ScalingReport) string {
		var b strings.Builder
		for _, x := range r.Bottlenecks {
			b.WriteString(x.Kind + "/" + x.Detail + ";")
		}
		return b.String()
	}
	first := order(r)
	r.Finalize()
	if got := order(r); got != first {
		t.Errorf("ranking not deterministic:\n%s\n%s", first, got)
	}
}

func TestScalingReportFileRoundTrip(t *testing.T) {
	r := report()
	r.Finalize()
	path := filepath.Join(t.TempDir(), "scaling.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := obs.LoadScalingReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(r.Points) || len(back.Bottlenecks) != len(r.Bottlenecks) {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Host.Gomaxprocs != 1 {
		t.Errorf("host stamp lost: %+v", back.Host)
	}
}

func TestCheckRegression(t *testing.T) {
	base := report()
	base.Finalize()

	fresh := report()
	fresh.Finalize()
	if err := obs.CheckRegression(base, fresh, 0.10); err != nil {
		t.Errorf("identical reports flagged: %v", err)
	}

	slow := report()
	slow.Points[1].SimSec = 3000 // 25% efficiency drop at workers=8
	slow.Finalize()
	if err := obs.CheckRegression(base, slow, 0.10); err == nil {
		t.Error("25% efficiency regression passed the 10% gate")
	}

	if err := obs.CheckRegression(&obs.ScalingReport{}, fresh, 0.10); err == nil {
		t.Error("empty baseline accepted")
	}
}

// TestCheckRegressionRejectsHostShapeMismatch: efficiency is normalised to
// min(workers, GOMAXPROCS), so a GOMAXPROCS=1 baseline (efficiency ~1 by
// construction) and a 2-P sweep are not comparable. The gate must say so,
// naming both shapes, instead of reporting a regression — in either
// direction, and even when the fresh efficiency would clear the bar.
func TestCheckRegressionRejectsHostShapeMismatch(t *testing.T) {
	base := report()
	base.Finalize()
	for _, procs := range []int{2, 8} {
		fresh := report()
		fresh.Host.Gomaxprocs = procs
		fresh.Finalize()
		err := obs.CheckRegression(base, fresh, 0.10)
		if err == nil || strings.Contains(err.Error(), "regressed") {
			t.Fatalf("GOMAXPROCS 1 baseline vs %d sweep: %v, want a host-shape error", procs, err)
		}
		for _, want := range []string{"GOMAXPROCS=1", fmt.Sprintf("GOMAXPROCS=%d", procs), "refresh"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("host-shape error %q does not mention %q", err, want)
			}
		}
		if err := obs.CheckRegression(fresh, base, 0.10); err == nil {
			t.Errorf("GOMAXPROCS %d baseline vs 1 sweep accepted", procs)
		}
	}
}

// TestCommittedReportGatesOnCappedPoint pins which point of the committed
// BENCH_scaling.json the nightly gate holds a fresh sweep to: the capped
// workers=8 point (efficiency 1.009). The report also ends with an
// uncapped workers=8 point (0.937) from before the cap became
// unconditional; it decodes as a second workers=8 point and must not
// become the bar.
func TestCommittedReportGatesOnCappedPoint(t *testing.T) {
	base, err := obs.LoadScalingReport("../../BENCH_scaling.json")
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(eff float64) *obs.ScalingReport {
		return &obs.ScalingReport{Host: base.Host, Points: []obs.ScalingPoint{
			{Workers: 1, Efficiency: 1},
			{Workers: 8, Efficiency: eff},
		}}
	}
	// 10% under 1.009 is 0.908: 0.92 passes, and 0.88 — which a 0.937
	// bar (floor 0.843) would pass — fails.
	if err := obs.CheckRegression(base, fresh(0.92), 0.10); err != nil {
		t.Errorf("efficiency 0.92 against the committed report: %v", err)
	}
	err = obs.CheckRegression(base, fresh(0.88), 0.10)
	if err == nil || !strings.Contains(err.Error(), "baseline 1.009") {
		t.Errorf("efficiency 0.88 against the committed report: %v, want a regression against baseline 1.009", err)
	}
}

func TestScalingTableRenders(t *testing.T) {
	r := report()
	r.Finalize()
	out := r.Table()
	for _, want := range []string{"Fleet scaling", "Ranked serialization sources", "GOMAXPROCS 1"} {
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
