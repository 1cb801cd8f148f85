package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceEvent is one completed span, serialised as a JSON line: a fleet job
// on the wall clock, or one of the three ZCover phases (scan → discover →
// fuzz) on the testbed's simulated clock.
type TraceEvent struct {
	// Name identifies the span ("scan", "discover", "fuzz", a job label).
	Name string `json:"name"`
	// Kind groups spans and names their clock: "phase" spans (pipeline
	// stages) are on the testbed's simulated clock, "job" spans (fleet
	// work) on the wall clock.
	Kind string `json:"kind,omitempty"`
	// Start and End bound the span on the clock Kind names.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// DurSec is End−Start in seconds, precomputed for plotting.
	DurSec float64 `json:"dur_sec"`
	// Attrs carries span labels (job, device, outcome, error, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tracer writes completed spans as JSON lines. Writes are serialised by a
// mutex; spans from concurrent fleet jobs appear in completion order. A
// nil *Tracer is a valid no-op tracer, so call sites need no guards.
//
// The first write error sticks: later writes return it without writing,
// and Err reports it, so a caller that cannot check every Write (the
// fleet writes from its workers) still learns that the trace is short.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewTracer writes spans to w. Every span carries its own instants, so
// the clock argument is not consulted.
func NewTracer(w io.Writer, _ func() time.Time) *Tracer {
	return &Tracer{w: w}
}

// Write appends the events as consecutive JSON lines, filling in each
// DurSec. Safe on a nil tracer.
func (t *Tracer) Write(evs ...TraceEvent) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	enc := json.NewEncoder(t.w)
	for _, ev := range evs {
		ev.DurSec = ev.End.Sub(ev.Start).Seconds()
		if err := enc.Encode(ev); err != nil {
			t.err = fmt.Errorf("telemetry: writing trace event: %w", err)
			return t.err
		}
	}
	return nil
}

// Err returns the first write error, or nil. Safe on a nil tracer.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ReadTrace parses a JSONL trace stream, tolerating blank lines and
// unknown fields (forward compatibility) but failing on malformed JSON.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	var out []TraceEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal(text, &ev); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading trace: %w", err)
	}
	return out, nil
}
