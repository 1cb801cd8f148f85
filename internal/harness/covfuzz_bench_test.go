package harness

import (
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// BenchmarkCovFuzz measures one coverage-guided campaign end to end —
// fingerprint, discovery, then the CovFuzz engine with its behavioral
// coverage map and in-memory corpus — against D1 at the one-hour budget.
// No bench/ workload runs this engine, so scripts/bench_gate.sh gates its
// allocs/op (coverage hooks, corpus admission, variant derivation) against
// the base commit's.
func BenchmarkCovFuzz(b *testing.B) {
	const budget = time.Hour
	var simSeconds float64
	for i := 0; i < b.N; i++ {
		tb, err := testbed.New("D1", 1)
		if err != nil {
			b.Fatal(err)
		}
		out, err := Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, FuzzMode: fleet.ModeCoverage, Budget: budget, Seed: 1}, Options{})
		if err != nil {
			b.Fatal(err)
		}
		simSeconds = out.CovFuzz.Elapsed.Seconds()
	}
	b.ReportMetric(simSeconds*float64(b.N)/b.Elapsed().Seconds(), "simsec/s")
}
