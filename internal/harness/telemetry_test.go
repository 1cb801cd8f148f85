package harness

import (
	"bytes"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/obs"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// fullTelemetryConfig builds a fleet config with every telemetry attachment
// live: a shared registry, a job tracer, and (via the process-wide knob) a
// flight recorder on every campaign testbed.
func fullTelemetryConfig(workers int, traceSink io.Writer) fleet.Config {
	return fleet.Config{
		Workers:   workers,
		Telemetry: telemetry.NewRegistry(),
		Tracer:    telemetry.NewTracer(traceSink, nil),
	}
}

// frameCycleCounters are the process-wide counters a campaign feeds once,
// when it ends: the medium's and injector's counts (testbed.Publish) and
// the fuzzing cycle's (fuzz.Cycle.End).
var frameCycleCounters = []string{
	"radio_tx_frames_total", "radio_rx_frames_total", "radio_frames_lost_total",
	"radio_frames_corrupted_total", "radio_frames_too_long_total",
	"protocol_frames_decoded_total", "protocol_decode_fail_total", "protocol_checksum_fail_total",
	"chaos_deliveries_total", "chaos_dropped_total", "chaos_corrupted_total",
	"chaos_duplicated_total", "chaos_delayed_total", "chaos_partitioned_total",
	"fuzz_packets_total", "fuzz_findings_total", "fuzz_duplicates_total",
}

// readCounters loads the named process-wide counters.
func readCounters(names []string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, name := range names {
		out[name] = telemetry.Default().Counter(name).Load()
	}
	return out
}

// counterDeltas reports how far each counter in base moved since.
func counterDeltas(base map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(base))
	for name, v := range base {
		out[name] = telemetry.Default().Counter(name).Load() - v
	}
	return out
}

// TestRunPublishesCountsWhenCampaignEnds pins where frame counts go: no
// frame writes the process-wide registry while the campaign runs (seen
// from inside OnFinding), and when Run returns, the counters have moved by
// exactly the testbed medium's counts and the result's.
func TestRunPublishesCountsWhenCampaignEnds(t *testing.T) {
	tb, err := testbed.New("D1", 41)
	if err != nil {
		t.Fatal(err)
	}
	base := readCounters(frameCycleCounters)
	findings := 0
	out, err := Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: fleetTestBudget, Seed: 41}, Options{
		OnFinding: func(fuzz.Finding) {
			findings++
			for _, name := range []string{"radio_tx_frames_total", "protocol_frames_decoded_total", "fuzz_packets_total"} {
				if d := counterDeltas(base)[name]; d != 0 {
					t.Errorf("finding %d: %s moved by %d mid-campaign", findings, name, d)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if findings == 0 {
		t.Fatal("campaign found nothing; OnFinding never looked at the counters")
	}
	s, res := tb.Medium.Stats(), out.Campaign.Fuzz
	got := counterDeltas(base)
	for name, want := range map[string]int64{
		"radio_tx_frames_total":         s.Tx,
		"radio_rx_frames_total":         s.Rx,
		"protocol_frames_decoded_total": s.Decoded,
		"protocol_decode_fail_total":    s.DecodeFail,
		"fuzz_packets_total":            int64(res.PacketsSent),
		"fuzz_findings_total":           int64(len(res.Findings)),
		"fuzz_duplicates_total":         int64(res.Duplicates),
	} {
		if got[name] != want {
			t.Errorf("%s moved by %d, want %d", name, got[name], want)
		}
	}
	if got["radio_tx_frames_total"] == 0 || got["fuzz_packets_total"] == 0 {
		t.Errorf("campaign published no traffic: %v", got)
	}
}

// TestTable5ByteIdenticalWithTelemetryAcrossWorkers asserts the
// determinism hard constraint: enabling the whole observability stack —
// metrics registry, flight recorder, trace — must not perturb Table V by
// a single byte, at any worker count. The trace's sim-time view is
// itself deterministic: sorted by job, the phase spans are equal at
// workers=1 and 8. So are the frame counts the campaigns publish: every
// frame-cycle counter moves by the same amount at both worker counts.
func TestTable5ByteIdenticalWithTelemetryAcrossWorkers(t *testing.T) {
	baseTbl, _, err := Table5(fleetTestBudget, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	SetFleetRecorderDepth(telemetry.DefaultFlightDepth)
	defer SetFleetRecorderDepth(0)
	var simSpans [][]telemetry.TraceEvent
	var moved []map[string]int64
	for _, workers := range []int{1, 8} {
		var traces bytes.Buffer
		base := readCounters(frameCycleCounters)
		tbl, _, err := Table5(fleetTestBudget, fullTelemetryConfig(workers, &traces))
		if err != nil {
			t.Fatal(err)
		}
		moved = append(moved, counterDeltas(base))
		if tbl.String() != baseTbl.String() {
			t.Errorf("Table V with telemetry (workers=%d) differs from plain run:\n--- telemetry ---\n%s\n--- plain ---\n%s",
				workers, tbl.String(), baseTbl.String())
		}
		events, err := telemetry.ReadTrace(&traces)
		if err != nil {
			t.Fatalf("workers=%d: reading job trace: %v", workers, err)
		}
		var jobs int
		var phases []telemetry.TraceEvent
		for _, ev := range events {
			switch ev.Kind {
			case "job":
				jobs++
			case "phase":
				if !ev.End.After(ev.Start) {
					t.Errorf("workers=%d: %s span of %s has no sim duration (%v → %v)",
						workers, ev.Name, ev.Attrs["job"], ev.Start, ev.End)
				}
				phases = append(phases, ev)
			}
		}
		if jobs != 10 {
			t.Errorf("workers=%d: %d job spans, want 10 (one per Table V campaign)", workers, jobs)
		}
		// Five VFuzz campaigns scan and fuzz; five ZCover ones also discover.
		if len(phases) != 25 {
			t.Errorf("workers=%d: %d phase spans, want 25", workers, len(phases))
		}
		sort.SliceStable(phases, func(i, j int) bool { return phases[i].Attrs["job"] < phases[j].Attrs["job"] })
		simSpans = append(simSpans, phases)
	}
	if !reflect.DeepEqual(simSpans[0], simSpans[1]) {
		t.Errorf("sim-time phase spans differ between workers=1 and 8:\n%+v\n%+v", simSpans[0], simSpans[1])
	}
	if !reflect.DeepEqual(moved[0], moved[1]) {
		t.Errorf("frame-cycle counters moved differently at workers=1 and 8:\n%v\n%v", moved[0], moved[1])
	}
	if moved[0]["radio_tx_frames_total"] == 0 || moved[0]["fuzz_packets_total"] == 0 {
		t.Errorf("Table V published no traffic: %v", moved[0])
	}
}

func TestTable6ByteIdenticalWithTelemetryAcrossWorkers(t *testing.T) {
	baseTbl, _, err := Table6(fleetTestBudget, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	SetFleetRecorderDepth(telemetry.DefaultFlightDepth)
	defer SetFleetRecorderDepth(0)
	for _, workers := range []int{1, 8} {
		var traces bytes.Buffer
		tbl, _, err := Table6(fleetTestBudget, fullTelemetryConfig(workers, &traces))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.String() != baseTbl.String() {
			t.Errorf("Table VI with telemetry (workers=%d) differs from plain run:\n--- telemetry ---\n%s\n--- plain ---\n%s",
				workers, tbl.String(), baseTbl.String())
		}
	}
}

// TestFlightRecorderAttachesTracesToFindings asserts the other acceptance
// criterion: with a recorder attached, every finding of a campaign carries
// at least one captured frame, the snapshot survives the JSONL round trip,
// and the recorder is detached from the medium when the run ends.
func TestFlightRecorderAttachesTracesToFindings(t *testing.T) {
	tb, err := testbed.New("D1", 41)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: fleetTestBudget, Seed: 41}, Options{
		FlightRecorderDepth: telemetry.DefaultFlightDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := out.Campaign
	if len(c.Fuzz.Findings) == 0 {
		t.Fatal("campaign found nothing; cannot exercise traces")
	}
	for i, f := range c.Fuzz.Findings {
		if len(f.Trace) == 0 {
			t.Errorf("finding %d (%s) has no flight-recorder trace", i, f.Signature)
		}
	}

	var buf bytes.Buffer
	if err := fuzz.WriteLog(&buf, c.Fuzz); err != nil {
		t.Fatal(err)
	}
	entries, err := fuzz.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(c.Fuzz.Findings) {
		t.Fatalf("%d log entries for %d findings", len(entries), len(c.Fuzz.Findings))
	}
	for i, e := range entries {
		if len(e.Trace) != len(c.Fuzz.Findings[i].Trace) {
			t.Errorf("entry %d: %d trace frames in log, %d in finding", i, len(e.Trace), len(c.Fuzz.Findings[i].Trace))
		}
		for _, tf := range e.Trace {
			if _, err := tf.RawFrame(); err != nil {
				t.Errorf("entry %d: %v", i, err)
			}
		}
	}

	// The deferred detach must leave the medium clean for testbed reuse.
	out, err = Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: time.Minute, Seed: 41}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := out.Campaign
	for _, f := range plain.Fuzz.Findings {
		if len(f.Trace) != 0 {
			t.Error("recorder leaked into a later campaign without one")
			break
		}
	}
}

// TestRecorderAndTracerDoNotPerturbFindings pins the observer-purity
// contract at single-campaign granularity: the same seed yields the same
// findings with and without every attachment enabled — a flight recorder,
// and a timeline lane fed through OnPhase as cmd/zcover feeds its trace.
func TestRecorderAndTracerDoNotPerturbFindings(t *testing.T) {
	run := func(tb *testbed.Testbed, opts Options) *fuzz.Result {
		t.Helper()
		out, err := Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: fleetTestBudget, Seed: 7}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out.Campaign.Fuzz
	}
	newTestbed := func() *testbed.Testbed {
		t.Helper()
		tb, err := testbed.New("D4", 7)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}

	plain := run(newTestbed(), Options{})
	tb := newTestbed()
	tl := obs.NewTimeline()
	traced := run(tb, Options{
		FlightRecorderDepth: 32,
		OnPhase:             func(p string) { tl.Phase(0, "D4", p, tb.Clock.Now()) },
	})

	if len(plain.Findings) != len(traced.Findings) {
		t.Fatalf("finding count changed: %d plain, %d instrumented", len(plain.Findings), len(traced.Findings))
	}
	for i := range plain.Findings {
		p, q := plain.Findings[i], traced.Findings[i]
		if p.Signature != q.Signature || p.Packets != q.Packets || p.Elapsed != q.Elapsed {
			t.Errorf("finding %d diverged: %s/%d/%v vs %s/%d/%v",
				i, p.Signature, p.Packets, p.Elapsed, q.Signature, q.Packets, q.Elapsed)
		}
	}
	if plain.PacketsSent != traced.PacketsSent {
		t.Errorf("packet count changed: %d vs %d", plain.PacketsSent, traced.PacketsSent)
	}

	tl.EndRun(0, tb.Clock.Now(), nil)
	events := obs.SimSpans(tl.Snapshot().Intervals)
	var phases []string
	for _, ev := range events {
		phases = append(phases, ev.Name)
	}
	if want := []string{"scan", "discover", "fuzz"}; strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Errorf("phase spans = %v, want %v", phases, want)
	}
	for _, ev := range events {
		if !ev.End.After(ev.Start) {
			t.Errorf("span %q has non-positive duration (%v → %v)", ev.Name, ev.Start, ev.End)
		}
	}
}
