package harness

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"zcover/internal/fleet"
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

// TestTable5ByteIdenticalWithTelemetryAcrossWorkers asserts the ISSUE's
// determinism hard constraint: enabling the whole observability stack —
// metrics registry, flight recorder, span tracer — must not perturb
// Table V by a single byte, at any worker count.
func TestTable5ByteIdenticalWithTelemetryAcrossWorkers(t *testing.T) {
	baseTbl, _, err := Table5(fleetTestBudget, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	SetFleetRecorderDepth(telemetry.DefaultFlightDepth)
	defer SetFleetRecorderDepth(0)
	for _, workers := range []int{1, 8} {
		var traces bytes.Buffer
		tbl, _, err := Table5(fleetTestBudget, fullTelemetryConfig(workers, &traces))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.String() != baseTbl.String() {
			t.Errorf("Table V with telemetry (workers=%d) differs from plain run:\n--- telemetry ---\n%s\n--- plain ---\n%s",
				workers, tbl.String(), baseTbl.String())
		}
		events, err := telemetry.ReadTrace(&traces)
		if err != nil {
			t.Fatalf("workers=%d: reading job trace: %v", workers, err)
		}
		if len(events) != 10 {
			t.Errorf("workers=%d: %d job spans, want 10 (one per Table V campaign)", workers, len(events))
		}
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
// findings with and without every attachment enabled.
func TestRecorderAndTracerDoNotPerturbFindings(t *testing.T) {
	run := func(opts Options) *fuzz.Result {
		t.Helper()
		tb, err := testbed.New("D4", 7)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: fleetTestBudget, Seed: 7}, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := out.Campaign
		return c.Fuzz
	}

	plain := run(Options{})
	var traces strings.Builder
	traced := run(Options{
		FlightRecorderDepth: 32,
		Tracer:              telemetry.NewTracer(&traces, nil),
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

	events, err := telemetry.ReadTrace(strings.NewReader(traces.String()))
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, ev := range events {
		if ev.Kind == "phase" {
			phases = append(phases, ev.Name)
		}
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
