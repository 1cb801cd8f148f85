// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark regenerates its experiment at the
// paper's budget (24 h campaigns run in seconds of real time on the
// simulated clock) and reports the headline quantity as a custom metric,
// so `go test -bench=. -benchmem` doubles as the reproduction run.
package zcover_test

import (
	"testing"
	"time"

	"zcover"
	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
	"zcover/internal/testbed"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// BenchmarkFig1_FrameCodec measures the frame layer underlying every
// experiment: one encode+decode round trip of the Figure 1 example frame.
func BenchmarkFig1_FrameCodec(b *testing.B) {
	f := protocol.NewDataFrame(0xCB95A34A, 0x0F, 0x01, []byte{0x20, 0x01, 0xFF})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw, err := f.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := protocol.Decode(raw, protocol.ChecksumCS8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_CommandDistribution regenerates the Figure 5 series from
// the specification database.
func BenchmarkFig5_CommandDistribution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, csv, err := zcover.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if len(csv.Rows) != 16 {
			b.Fatalf("series = %d bars", len(csv.Rows))
		}
	}
}

// BenchmarkTable2_Inventory renders the testbed inventory.
func BenchmarkTable2_Inventory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tbl := zcover.Table2(); len(tbl.Rows) != 9 {
			b.Fatal("inventory wrong")
		}
	}
}

// BenchmarkTable3_ZeroDayDiscovery reruns the full 24 h campaign on all
// seven controllers and reports the union of unique vulnerabilities
// (paper: 15).
func BenchmarkTable3_ZeroDayDiscovery(b *testing.B) {
	var union int
	for i := 0; i < b.N; i++ {
		_, res, err := zcover.Table3(24*time.Hour, zcover.FleetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		union = len(res.Affected)
	}
	b.ReportMetric(float64(union), "unique-vulns")
}

// BenchmarkTable4_Fingerprinting reruns phases 1–2 on all controllers and
// reports the total unknown CMDCLs discovered (paper: 28/30 per device).
func BenchmarkTable4_Fingerprinting(b *testing.B) {
	var unknown int
	for i := 0; i < b.N; i++ {
		_, rows, err := zcover.Table4(zcover.FleetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		unknown = 0
		for _, r := range rows {
			unknown += r.Unknown
		}
	}
	b.ReportMetric(float64(unknown), "unknown-cmdcls-total")
}

// BenchmarkTable5_VFuzzComparison reruns the 24 h VFuzz-vs-ZCover
// comparison on D1–D5 and reports both tools' totals (paper: ZCover 15
// per device vs VFuzz {1,3,0,4,0}, disjoint).
func BenchmarkTable5_VFuzzComparison(b *testing.B) {
	var zTotal, vTotal, overlap int
	for i := 0; i < b.N; i++ {
		_, rows, err := zcover.Table5(24*time.Hour, zcover.FleetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		zTotal, vTotal, overlap = 0, 0, 0
		for _, r := range rows {
			zTotal += r.ZCoverVulns
			vTotal += r.VFuzzVulns
			overlap += r.Overlap
		}
	}
	b.ReportMetric(float64(zTotal), "zcover-vulns")
	b.ReportMetric(float64(vTotal), "vfuzz-vulns")
	b.ReportMetric(float64(overlap), "common-vulns")
}

// BenchmarkTable6_Ablation reruns the one-hour ablation (paper: 15/8/6).
func BenchmarkTable6_Ablation(b *testing.B) {
	var full, beta, gamma int
	for i := 0; i < b.N; i++ {
		_, rows, err := zcover.Table6(time.Hour, zcover.FleetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		full, beta, gamma = rows[0].Vulns, rows[1].Vulns, rows[2].Vulns
	}
	b.ReportMetric(float64(full), "full-vulns")
	b.ReportMetric(float64(beta), "beta-vulns")
	b.ReportMetric(float64(gamma), "gamma-vulns")
}

// BenchmarkFig12_DetectionTimeline reruns the four Figure 12 campaigns and
// reports the discoveries landing inside the paper's ~800 s plot window.
func BenchmarkFig12_DetectionTimeline(b *testing.B) {
	var early, packets int
	for i := 0; i < b.N; i++ {
		_, series, err := zcover.Fig12(24*time.Hour, 800*time.Second, zcover.FleetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		early, packets = 0, 0
		for _, s := range series {
			for _, f := range s.Discoveries {
				if f.Elapsed <= 800*time.Second {
					early++
				}
			}
			packets += s.Samples[len(s.Samples)-1].Packets
		}
	}
	b.ReportMetric(float64(early), "discoveries-in-window")
	b.ReportMetric(float64(packets)/4, "packets-at-800s-avg")
}

// BenchmarkAblation_Prioritization measures the queue-ordering design
// choice (§III-C1, "Prioritizing CMDCLs"): unique findings within the
// first ten simulated minutes with the command-count-prioritised queue
// versus the same queue reversed. The prioritised order reaches the
// bug-dense hidden class 0x01 first.
func BenchmarkAblation_Prioritization(b *testing.B) {
	run := func(reverse bool) int {
		tb, err := testbed.New("D1", 17)
		if err != nil {
			b.Fatal(err)
		}
		d := dongle.New(tb.Medium, tb.Region)
		fp := scan.Fingerprint{Home: tb.Home(), Controller: testbed.ControllerID,
			Nodes: []protocol.NodeID{1, 2, 3}}
		queue := cmdclass.MustLoad().ControllerCluster()
		queue = append(queue, cmdclass.HiddenCandidates()...)
		queue = cmdclass.PrioritizeByCommandCount(queue)
		if reverse {
			for i, j := 0, len(queue)-1; i < j; i, j = i+1, j-1 {
				queue[i], queue[j] = queue[j], queue[i]
			}
		}
		mut := mutate.New(mutate.Semantics{Controller: 1, KnownNodes: fp.Nodes}, 17)
		eng, err := fuzz.New(d, fp, queue, mut, fuzz.StrategyFull, "D1",
			fuzz.Config{Duration: 10 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		tb.Bus.Subscribe(eng.Observe)
		return len(eng.Run().Findings)
	}
	var prioritized, reversed int
	for i := 0; i < b.N; i++ {
		prioritized = run(false)
		reversed = run(true)
	}
	b.ReportMetric(float64(prioritized), "bugs-in-10min-prioritized")
	b.ReportMetric(float64(reversed), "bugs-in-10min-reversed")
}

// BenchmarkAblation_SemanticPools measures the semantic value pools
// (known node IDs as mutation values): unique findings in the hidden
// class 0x01 within 30 simulated minutes, with and without network
// knowledge.
func BenchmarkAblation_SemanticPools(b *testing.B) {
	run := func(withSemantics bool) int {
		tb, err := testbed.New("D2", 23)
		if err != nil {
			b.Fatal(err)
		}
		d := dongle.New(tb.Medium, tb.Region)
		fp := scan.Fingerprint{Home: tb.Home(), Controller: testbed.ControllerID}
		sem := mutate.Semantics{Controller: 1}
		if withSemantics {
			fp.Nodes = []protocol.NodeID{1, 2, 3}
			sem.KnownNodes = fp.Nodes
		}
		proto, _ := cmdclass.HiddenClass(cmdclass.ClassZWaveProtocol)
		mut := mutate.New(sem, 23)
		eng, err := fuzz.New(d, fp, []*cmdclass.Class{proto}, mut, fuzz.StrategyFull, "D2",
			fuzz.Config{Duration: 30 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		tb.Bus.Subscribe(eng.Observe)
		return len(eng.Run().Findings)
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(float64(with), "bugs-with-semantics")
	b.ReportMetric(float64(without), "bugs-without-semantics")
}

// BenchmarkPipeline_SingleCampaign measures one end-to-end one-hour
// campaign (all three phases), the unit of every table above.
func BenchmarkPipeline_SingleCampaign(b *testing.B) {
	b.ReportAllocs()
	var found int
	for i := 0; i < b.N; i++ {
		tb, err := testbed.New("D1", int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		job := zcover.FleetJob{Strategy: zcover.StrategyFull, Budget: time.Hour, Seed: int64(i) + 1}
		out, err := zcover.Run(tb, job, zcover.Options{})
		if err != nil {
			b.Fatal(err)
		}
		found = len(out.Campaign.Fuzz.Findings)
	}
	b.ReportMetric(float64(found), "unique-vulns")
}
