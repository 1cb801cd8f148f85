package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter lookup did not return the same handle")
	}
	g := r.Gauge("g")
	g.Add(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: a value exactly on
// a bound lands in that bound's bucket, one epsilon above spills into the
// next, and values above every bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 5, 10)

	cases := []struct {
		v    float64
		want int // bucket index: bounds [1 5 10] + +Inf at 3
	}{
		{0, 0}, {1, 0}, // exactly on the first bound → first bucket
		{1.0000001, 1},
		{5, 1}, // exactly on a middle bound
		{9.999, 2},
		{10, 2},   // exactly on the last bound
		{10.1, 3}, // above every bound → +Inf
		{1e12, 3},
		{-3, 0}, // below the first bound still lands in the first bucket
	}
	for _, tc := range cases {
		before := h.BucketCounts()
		h.Observe(tc.v)
		after := h.BucketCounts()
		for i := range after {
			wantDelta := int64(0)
			if i == tc.want {
				wantDelta = 1
			}
			if after[i]-before[i] != wantDelta {
				t.Errorf("Observe(%v): bucket %d delta = %d, want %d",
					tc.v, i, after[i]-before[i], wantDelta)
			}
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(cases))
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 10, 1, 5)
	got := h.Bounds()
	want := []float64{1, 5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bounds = %v, want %v", got, want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8000*1.5 {
		t.Fatalf("Sum = %g, want %g", h.Sum(), 8000*1.5)
	}
}

func TestWritePrometheusStableAndCumulative(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("q").Add(-4)
	h := r.Histogram("lat_ms", 1, 2)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Errorf("counters not sorted by name:\n%s", out)
	}
	for _, want := range []string{
		"a_total 1", "b_total 2", "q -4",
		`lat_ms_bucket{le="1"} 1`,
		`lat_ms_bucket{le="2"} 2`,
		`lat_ms_bucket{le="+Inf"} 3`,
		"lat_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("two exports of the same registry differ")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkts").Add(7)
	r.Gauge("running").Add(3)
	r.Histogram("h", 1).Observe(2)

	var buf bytes.Buffer
	before := time.Now()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	after := time.Now()
	var doc struct {
		At         time.Time        `json:"at"`
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Counts []int64 `json:"counts"`
			Count  int64   `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.At.Before(before) || doc.At.After(after) {
		t.Errorf("at = %v, want the wall time of the export (%v..%v)", doc.At, before, after)
	}
	if doc.Counters["pkts"] != 7 || doc.Gauges["running"] != 3 {
		t.Errorf("values = %v / %v", doc.Counters, doc.Gauges)
	}
	if h := doc.Histograms["h"]; h.Count != 1 || len(h.Counts) != 2 || h.Counts[1] != 1 {
		t.Errorf("histogram export wrong: %+v", h)
	}
}

func TestFlightRecorderRingAndSnapshot(t *testing.T) {
	rec := NewFlightRecorder(3)
	at := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := byte(1); i <= 5; i++ {
		rec.Record(FrameRecord{At: at, Raw: []byte{i}, Security: SecurityNone})
	}
	// The ring holds the depth's worth of frames, and their Seq values
	// count every frame ever recorded.
	snap := rec.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d frames, want 3", len(snap))
	}
	for i, wantByte := range []byte{3, 4, 5} {
		if snap[i].Raw[0] != wantByte {
			t.Errorf("snapshot[%d].Raw = %v, want [%d]", i, snap[i].Raw, wantByte)
		}
		if snap[i].Seq != uint64(wantByte) {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, snap[i].Seq, wantByte)
		}
	}
	// Snapshot raw bytes are private copies.
	snap[0].Raw[0] = 0xFF
	if rec.Snapshot()[0].Raw[0] == 0xFF {
		t.Error("snapshot aliased the ring buffer")
	}
}

func TestFlightRecorderDefaultDepth(t *testing.T) {
	rec := NewFlightRecorder(0)
	for i := 0; i <= DefaultFlightDepth; i++ {
		rec.Record(FrameRecord{Raw: []byte{byte(i)}})
	}
	if got := len(rec.Snapshot()); got != DefaultFlightDepth {
		t.Fatalf("ring holds %d frames, want %d", got, DefaultFlightDepth)
	}
}

func TestTracerRoundTripAndNilSafety(t *testing.T) {
	var nilTracer *Tracer
	if err := nilTracer.Write(TraceEvent{Name: "x"}); err != nil {
		t.Fatalf("nil tracer Write: %v", err)
	}

	var buf bytes.Buffer
	start := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	tr := NewTracer(&buf, nil)
	err := tr.Write(
		TraceEvent{Name: "D1/full", Kind: "job", Start: start, End: start.Add(time.Second)},
		TraceEvent{Name: "scan", Kind: "phase", Start: start, End: start.Add(2 * time.Minute),
			Attrs: map[string]string{"job": "D1/full"}},
	)
	if err != nil {
		t.Fatal(err)
	}

	evs, err := ReadTrace(strings.NewReader(buf.String() + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("ReadTrace returned %d events, want 2", len(evs))
	}
	if job := evs[0]; job.Kind != "job" || job.DurSec != 1 {
		t.Errorf("job event = %+v", job)
	}
	ev := evs[1]
	if ev.Name != "scan" || ev.Kind != "phase" || ev.DurSec != 120 || ev.Attrs["job"] != "D1/full" {
		t.Errorf("event = %+v", ev)
	}
	if !ev.Start.Equal(start) || !ev.End.Equal(start.Add(2*time.Minute)) {
		t.Errorf("span times = %v..%v", ev.Start, ev.End)
	}
}

func TestReadTraceToleratesUnknownFieldsRejectsGarbage(t *testing.T) {
	in := `{"name":"fuzz","kind":"phase","start":"2025-01-01T00:00:00Z","end":"2025-01-01T00:01:00Z","dur_sec":60,"future_field":123}`
	evs, err := ReadTrace(strings.NewReader(in))
	if err != nil || len(evs) != 1 {
		t.Fatalf("unknown-field line: evs=%d err=%v", len(evs), err)
	}
	if _, err := ReadTrace(strings.NewReader("{not json}")); err == nil {
		t.Fatal("malformed line did not error")
	}
}
