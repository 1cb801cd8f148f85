// Package telemetry is the process-wide observability layer of the ZCover
// reproduction: a metrics registry (named atomic counters and
// fixed-bucket histograms), a bounded packet flight recorder, and a
// JSONL span writer.
//
// The paper's evaluation is made of derived metrics — packets per campaign,
// detection latencies, outage durations, coverage counts (Tables V/VI,
// Figs. 8–12) — and Algorithm 1 explicitly logs findings "to file for
// future analysis". This package gives every layer of the pipeline a single
// place to emit those signals in machine-readable form: Prometheus text
// exposition for scrapers, a single JSON document for the bench trajectory,
// JSONL traces for post-mortem replay.
//
// Design constraints, in order:
//
//   - Determinism. Telemetry must never feed back into simulation results:
//     nothing here is consulted by the pipeline, and with telemetry enabled
//     the experiment tables stay byte-identical across worker counts.
//   - Off the frame path. Counter and histogram updates are single
//     atomic operations with no locks and no allocation, and handles are
//     resolved once (package init or construction time), never per event.
//     Even so, the process-wide registry is shared by every campaign a
//     fleet runs side by side, so nothing writes it per frame: each
//     campaign counts its own frames and adds the totals once, when it
//     ends. What is written mid-campaign (detection latencies, oracle
//     events, crypto and checkpoint events) is rare next to the frames.
//   - Wall time. A registry summed over campaigns running side by side
//     has no single simulated clock, so exported snapshots carry wall
//     time; simulated instants live in traces and flight records.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are lock-free
// and safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters are monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Bucket bounds are
// immutable after construction; Observe is a binary search over a handful
// of bounds plus two atomic adds — no locks, no allocation.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; implicit +Inf bucket follows
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value. Values land in the first bucket whose upper
// bound is >= v (Prometheus "le" semantics); values above every bound land
// in the implicit +Inf bucket.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns a copy of the bucket upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Registry is a named collection of instruments. Get-or-create lookups
// take a lock; the returned handles are lock-free, so callers resolve a
// handle once and hold it. The zero value is not usable; construct with
// NewRegistry or use the process-wide Default.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry stamped with wall-clock time.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  map[string]*Counter{},
		hists: map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Package-level instrumentation
// (radio frames, crypto operations, decode failures) registers here.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. Later calls return the existing histogram and
// ignore the bounds, so every registration site should agree on them.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// snapshot collects a stable, name-sorted view for the exporters.
func (r *Registry) snapshot() (at time.Time, ctrs []namedValue, hists []namedHist) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at = time.Now()
	for name, c := range r.ctrs {
		ctrs = append(ctrs, namedValue{name, c.Load()})
	}
	for name, h := range r.hists {
		hists = append(hists, namedHist{name, h})
	}
	sort.Slice(ctrs, func(i, j int) bool { return ctrs[i].name < ctrs[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	return at, ctrs, hists
}

type namedValue struct {
	name string
	v    int64
}

type namedHist struct {
	name string
	h    *Histogram
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, instruments sorted by name so output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, ctrs, hists := r.snapshot()
	for _, c := range ctrs {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.v); err != nil {
			return err
		}
	}
	for _, nh := range hists {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", nh.name); err != nil {
			return err
		}
		counts := nh.h.BucketCounts()
		cum := int64(0)
		for i, bound := range nh.h.bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", nh.name, formatBound(bound), cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			nh.name, cum, nh.name, nh.h.Sum(), nh.name, nh.h.Count()); err != nil {
			return err
		}
	}
	return nil
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// WriteFile dumps the registry to path, picking the format from the
// extension: a single JSON document for ".json", Prometheus text exposition
// otherwise. This is what the -metrics-out command-line flags call on exit.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if strings.EqualFold(filepath.Ext(path), ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// jsonHistogram is the JSON-export form of one histogram.
type jsonHistogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// jsonDocument is the single-document JSON export shape.
type jsonDocument struct {
	At         time.Time                `json:"at"`
	Counters   map[string]int64         `json:"counters"`
	Histograms map[string]jsonHistogram `json:"histograms"`
}

// WriteJSON renders the registry as one indented JSON document stamped
// with the wall-clock time of the snapshot ("at"); map keys serialise
// sorted, so output is stable.
func (r *Registry) WriteJSON(w io.Writer) error {
	at, ctrs, hists := r.snapshot()
	doc := jsonDocument{
		At:         at,
		Counters:   map[string]int64{},
		Histograms: map[string]jsonHistogram{},
	}
	for _, c := range ctrs {
		doc.Counters[c.name] = c.v
	}
	for _, nh := range hists {
		doc.Histograms[nh.name] = jsonHistogram{
			Bounds: nh.h.Bounds(),
			Counts: nh.h.BucketCounts(),
			Sum:    nh.h.Sum(),
			Count:  nh.h.Count(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
