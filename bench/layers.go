package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"zcover/internal/obs"
)

// ledgerLayers are the layers reported in CPU ns and allocations per
// test frame: the frame cycle (mutate → encode → air → decode/decap →
// dispatch and bug models → oracle → liveness ping, on the simulated
// clock), the VFuzz engine, the chaos interceptor, and the campaign
// wrappers around them (fleet, testbed build, scan, discovery, the
// outcome codec, coordinator, and journal).
var ledgerLayers = []string{
	"mutate", "fuzz", "dongle", "protocol", "radio", "vtime", "device",
	"controller", "oracle", "security", "telemetry", "vfuzz", "chaos",
	"fleet", "testbed", "scan", "discover", "harness", "coord", "checkpoint",
}

// perLayer lists the traced run's metrics in print order.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range ledgerLayers {
		defs = append(defs, metricDef{l + ".ns_per_frame", "ns"}, metricDef{l + ".allocs_per_frame", "1"})
	}
	return append(defs,
		metricDef{"other.ns_per_frame", "ns"},
		metricDef{"other.allocs_per_frame", "1"},
		metricDef{"runtime.ns_per_frame", "ns"},
		metricDef{"transport.ns_per_frame", "ns"},
		metricDef{"protocol.decode_fail_ratio", "1"},
		metricDef{"radio.rx_per_frame", "1"},
		metricDef{"radio.lost_ratio", "1"},
		metricDef{"device.retransmit_ratio", "1"},
		metricDef{"security.auth_fail_ratio", "1"},
		metricDef{"security.keyctx_hit_ratio", "1"},
		metricDef{"oracle.events_per_kframe", "1"},
		metricDef{"fuzz.duplicate_ratio", "1"},
		metricDef{"chaos.intercept_ns.p50", "ns"},
		metricDef{"chaos.intercept_ns.p99", "ns"},
		metricDef{"chaos.fault_ratio", "1"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"fleet.idle_share", "1"},
		metricDef{"fleet.retry_ratio", "1"},
		metricDef{"testbed.build_ms.p50", "ms"},
		metricDef{"scan.ms.p50", "ms"},
		metricDef{"discover.ms.p50", "ms"},
		metricDef{"fuzz.phase_share", "1"},
		metricDef{"coord.lease_ms.p50", "ms"},
		metricDef{"coord.lease_ms.p99", "ms"},
		metricDef{"coord.result_ms.p50", "ms"},
		metricDef{"coord.result_ms.p99", "ms"},
		metricDef{"coord.transport_ms_per_job", "ms"},
		metricDef{"coord.upload_share", "1"},
		metricDef{"coord.retry_after_polls", "count"},
		metricDef{"checkpoint.bytes_per_job", "B"},
		metricDef{"checkpoint.fsyncs_per_job", "1"},
		metricDef{"checkpoint.recover_ms", "ms"},
		metricDef{"harness.encode_us_per_job", "us"},
		metricDef{"harness.decode_us_per_job", "us"},
		metricDef{"ledger.unattributed_share", "1"},
		metricDef{"ledger.cpu_ratio", "1"},
		metricDef{"ledger.alloc_ratio", "1"},
		metricDef{"trace.overhead_share", "1"},
	)
}()

// Ledger gates: a traced run fails when more than maxUnattributed of the
// profiled CPU has no layer, or when the layers' CPU strays from the
// process's CPU time by more than maxCPUGap.
const (
	maxUnattributed = 0.15
	maxCPUGap       = 0.15
)

// traceMemRate is the allocation-profile sampling rate (bytes between
// samples) during the traced half of a traced run.
const traceMemRate = 32 << 10

// ledger is what the profiles of a traced phase say about its layers.
type ledger struct {
	cpu     map[string]time.Duration
	procCPU time.Duration
	// allocs is the profile's per-layer estimate, scaled to sum to mallocs.
	allocs map[string]float64
	// mallocs counts every allocation; profiled counts the ones the
	// allocation profile can see (tiny allocations share one sampled
	// 16-byte block), and estimated is the profile's unscaled total.
	mallocs, profiled uint64
	estimated         float64
	c0, c1            map[string]int64
}

// tracedRun spends half the run untraced, as the reference for the
// tracing overhead, and half traced: spans at the benchmark's layer
// boundaries, a CPU profile, and a finer allocation profile. It returns
// both halves' stats and the per-layer metrics.
func tracedRun(ctx context.Context, e env, rs runSpec) (ref, st *runStats, metrics map[string]float64, err error) {
	rs.seconds /= 2
	if ref, err = measure(ctx, e, rs, nil); err != nil {
		return nil, nil, nil, err
	}
	lanes := 1
	if rs.w.coordinated {
		lanes = coordWorkers
	}
	tr := newTracer(lanes)
	var lg ledger
	lg.c0 = readCounters()
	prevRate := runtime.MemProfileRate
	runtime.MemProfileRate = traceMemRate
	defer func() { runtime.MemProfileRate = prevRate }()
	a0 := snapAllocs()
	all0, tiny0 := allocCounts()

	profPath := filepath.Join(e.tmp, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, nil, nil, err
	}
	defer prof.Close()
	cpu0 := cpuTime()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, nil, nil, err
	}
	st, err = measure(ctx, e, rs, tr)
	pprof.StopCPUProfile()
	lg.procCPU = cpuTime() - cpu0
	if err != nil {
		return nil, nil, nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, nil, nil, err
	}
	a1 := snapAllocs()
	all1, tiny1 := allocCounts()
	lg.mallocs, lg.profiled = all1+tiny1-all0-tiny0, all1-all0
	lg.allocs, lg.estimated = scaleAllocs(allocsByLayer(a0, a1, traceMemRate), lg.mallocs)
	lg.c1 = readCounters()
	samples, err := profileTraces(profPath)
	if err != nil {
		return nil, nil, nil, err
	}
	lg.cpu = cpuByLayer(samples)

	metrics = layerMetrics(ref, st, tr, lg)
	if share := metrics["ledger.unattributed_share"]; share > maxUnattributed {
		st.violations = append(st.violations, fmt.Sprintf("ledger: %.1f%% of CPU is unattributed (limit %.0f%%)", 100*share, 100*maxUnattributed))
	}
	if r := metrics["ledger.cpu_ratio"]; math.Abs(r-1) > maxCPUGap {
		st.violations = append(st.violations, fmt.Sprintf("ledger: layers sum to %.2f× the process CPU time (limit ±%.0f%%)", r, 100*maxCPUGap))
	}
	if st.digest != ref.digest {
		st.violations = append(st.violations, "tracing changed the outcome digest")
	}
	spanPath := filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.json", rs.w.name, rs.seed))
	err = tr.writeSpans(spanPath, map[string]any{
		"cpu_ns": lg.cpu, "process_cpu_ns": lg.procCPU, "allocs": lg.allocs,
		"mallocs": lg.mallocs, "profiled_allocs": lg.profiled, "frames": st.frames,
	})
	return ref, st, metrics, err
}

// layerMetrics derives the per-layer metrics of a traced phase st; ref is
// the untraced phase that preceded it.
func layerMetrics(ref, st *runStats, tr *tracer, lg ledger) map[string]float64 {
	m := map[string]float64{}
	frames := float64(st.frames)
	jobs := float64(st.jobs)
	perFrame := func(v float64) float64 { return ratio(v, frames) }
	delta := func(name string) float64 { return float64(lg.c1[name] - lg.c0[name]) }

	named := map[string]bool{layerRuntime: true, layerTransport: true, layerUnattributed: true}
	for _, l := range ledgerLayers {
		named[l] = true
		m[l+".ns_per_frame"] = perFrame(float64(lg.cpu[l]))
		m[l+".allocs_per_frame"] = perFrame(lg.allocs[l])
	}
	var totalNs, otherNs, otherAllocs float64
	for l, d := range lg.cpu {
		totalNs += float64(d)
		if !named[l] {
			otherNs += float64(d)
		}
	}
	for l, a := range lg.allocs {
		if !named[l] {
			otherAllocs += a
		}
	}
	m["other.ns_per_frame"] = perFrame(otherNs)
	m["other.allocs_per_frame"] = perFrame(otherAllocs)
	m["runtime.ns_per_frame"] = perFrame(float64(lg.cpu[layerRuntime]))
	m["transport.ns_per_frame"] = perFrame(float64(lg.cpu[layerTransport]))

	decodeFail := delta("protocol_decode_fail_total")
	m["protocol.decode_fail_ratio"] = ratio(decodeFail, decodeFail+delta("protocol_frames_decoded_total"))
	rx, lost := delta("radio_rx_frames_total"), delta("radio_frames_lost_total")
	m["radio.rx_per_frame"] = perFrame(rx)
	m["radio.lost_ratio"] = ratio(lost, rx+lost)
	m["device.retransmit_ratio"] = ratio(delta("device_retransmissions_total"), delta("radio_tx_frames_total"))
	m["security.auth_fail_ratio"] = ratio(
		delta("security_s0_auth_fail_total")+delta("security_s2_auth_fail_total"),
		delta("security_s0_decrypt_total")+delta("security_s2_decrypt_total"))
	hits := delta("security_keyctx_hits_total")
	m["security.keyctx_hit_ratio"] = ratio(hits, hits+delta("security_keyctx_miss_total"))
	m["oracle.events_per_kframe"] = 1000 * perFrame(delta("oracle_events_total"))
	dups := delta("fuzz_duplicates_total")
	m["fuzz.duplicate_ratio"] = ratio(dups, dups+delta("fuzz_findings_total"))

	m["chaos.intercept_ns.p50"] = tr.intercept.quantileNs(0.50)
	m["chaos.intercept_ns.p99"] = tr.intercept.quantileNs(0.99)
	faults := delta("chaos_dropped_total") + delta("chaos_corrupted_total") + delta("chaos_duplicated_total") +
		delta("chaos_delayed_total") + delta("chaos_partitioned_total")
	m["chaos.fault_ratio"] = ratio(faults, delta("chaos_deliveries_total"))
	m["runtime.gc_cycles"] = float64(st.gcCycles)
	m["runtime.gc_pause_ms"] = st.gcPause.Seconds() * 1e3

	phaseWall, perJob := tr.phases()
	var busy time.Duration
	for phase, d := range phaseWall {
		if phase != obs.PhaseIdle {
			busy += d
		}
	}
	m["fleet.idle_share"] = 1 - ratio(busy.Seconds(), float64(tr.lanes)*st.wall.Seconds())
	m["fleet.retry_ratio"] = ratio(float64(st.retries), jobs)
	m["testbed.build_ms.p50"] = percentile(perJob[obs.PhaseBuild], 0.5)
	m["scan.ms.p50"] = percentile(perJob[obs.PhaseScan], 0.5)
	m["discover.ms.p50"] = percentile(perJob[obs.PhaseDiscover], 0.5)
	m["fuzz.phase_share"] = ratio(phaseWall[obs.PhaseFuzz].Seconds(), busy.Seconds())

	tr.mu.Lock()
	m["coord.lease_ms.p50"] = percentile(tr.leaseMs, 0.50)
	m["coord.lease_ms.p99"] = percentile(tr.leaseMs, 0.99)
	m["coord.result_ms.p50"] = percentile(tr.resultMs, 0.50)
	m["coord.result_ms.p99"] = percentile(tr.resultMs, 0.99)
	m["coord.transport_ms_per_job"] = ratio(float64(tr.clientNs)/1e6, jobs)
	m["coord.upload_share"] = ratio(float64(tr.uploadNs), float64(tr.lanes)*float64(st.wall.Nanoseconds()))
	m["coord.retry_after_polls"] = float64(tr.retryAfter)
	m["checkpoint.recover_ms"] = median(tr.recoverMs)
	m["harness.encode_us_per_job"] = ratio(float64(tr.encodeNs)/1e3, float64(tr.encoded))
	m["harness.decode_us_per_job"] = ratio(float64(tr.decodeNs)/1e3, float64(tr.decoded))
	tr.mu.Unlock()
	m["checkpoint.bytes_per_job"] = ratio(delta("checkpoint_bytes_total"), jobs)
	m["checkpoint.fsyncs_per_job"] = ratio(delta("checkpoint_fsyncs_total"), jobs)

	m["ledger.unattributed_share"] = ratio(float64(lg.cpu[layerUnattributed]), totalNs)
	m["ledger.cpu_ratio"] = ratio(totalNs, float64(lg.procCPU))
	m["ledger.alloc_ratio"] = ratio(lg.estimated, float64(lg.profiled))
	m["trace.overhead_share"] = 1 - ratio(ratio(st.simSec, st.cpu.Seconds()), ratio(ref.simSec, ref.cpu.Seconds()))
	return m
}
