package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"zcover/internal/coord"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/obs"
	"zcover/internal/radio"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Spans with the same id
// belong to one job or one request.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	ID      string `json:"id,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records a traced run's spans and per-layer timings in memory.
// It is safe for concurrent use by the coordinator's lease workers.
type tracer struct {
	origin time.Time
	// lanes is how many workers execute campaigns at once.
	lanes int
	// intercept times a sample of the chaos interceptor's calls.
	intercept logHist

	mu         sync.Mutex
	spans      []span
	timelines  []*obs.Timeline
	leaseMs    []float64 // coordinator-side /lease handling
	resultMs   []float64 // coordinator-side /result handling
	clientNs   int64     // all worker round trips
	uploadNs   int64     // worker /result round trips
	retryAfter int       // lease replies carrying a retry-after hint
	encodeNs   int64
	encoded    int
	decodeNs   int64
	decoded    int
	recoverMs  []float64
}

// newTracer starts a tracer whose spans are stamped relative to now.
func newTracer(lanes int) *tracer {
	return &tracer{origin: time.Now(), lanes: lanes}
}

// record appends a span; callers hold t.mu.
func (t *tracer) record(name, layer, id string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Layer: layer, ID: id,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds()})
}

// addTimeline registers a fleet worker timeline whose phase intervals
// become spans and phase totals.
func (t *tracer) addTimeline(tl *obs.Timeline) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.timelines = append(t.timelines, tl)
}

// interceptSample is how many chaos interceptions pass per timed one;
// timing every call would cost about as much as the interceptor itself.
const interceptSample = 16

// chaosRunner is harness.RunFleetJob with the chaos injector's
// interceptor re-installed behind a timing wrapper: the same function,
// the same output, with every interceptSample-th interception timed.
func (t *tracer) chaosRunner() fleet.Runner[harness.FleetOutcome] {
	return func(tb *testbed.Testbed, job fleet.Job, ob *fleet.Observer) (harness.FleetOutcome, error) {
		if tb.Chaos != nil {
			intercept := tb.Chaos.Intercept
			var calls atomic.Int64 // interceptors must be safe for concurrent use
			tb.Medium.SetInterceptor(func(from, to string, raw []byte) []radio.Delivery {
				if calls.Add(1)%interceptSample != 0 {
					return intercept(from, to, raw)
				}
				start := time.Now()
				out := intercept(from, to, raw)
				t.intercept.observe(time.Since(start))
				return out
			})
		}
		return harness.RunFleetJob(tb, job, ob)
	}
}

// noteEncode records one outcome encoding by a lease worker.
func (t *tracer) noteEncode(job string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.encodeNs += end.Sub(start).Nanoseconds()
	t.encoded++
	t.record("encode", "harness", job, start, end)
}

// middleware times the coordinator's handling of every request.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		ms := float64(end.Sub(start).Nanoseconds()) / 1e6
		t.mu.Lock()
		defer t.mu.Unlock()
		switch r.URL.Path {
		case "/lease":
			t.leaseMs = append(t.leaseMs, ms)
		case "/result":
			t.resultMs = append(t.resultMs, ms)
		}
		t.record("serve "+r.URL.Path, "coord", "", start, end)
	})
}

// clientTimer wraps a lease worker's transport so every round trip is
// recorded.
func (t *tracer) clientTimer(worker string, base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		start := time.Now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return t.noteClient(worker, req.URL.Path, start, time.Now(), resp)
	})
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

// RoundTrip implements http.RoundTripper.
func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// noteClient records one worker round trip. Lease replies are read to
// count retry-after hints and handed on unchanged.
func (t *tracer) noteClient(worker, path string, start, end time.Time, resp *http.Response) (*http.Response, error) {
	retry := false
	if path == "/lease" && resp.StatusCode == http.StatusOK {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var reply coord.LeaseReply
		retry = json.Unmarshal(body, &reply) == nil && reply.RetryAfter > 0
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := end.Sub(start).Nanoseconds()
	t.clientNs += d
	if path == "/result" {
		t.uploadNs += d
	}
	if retry {
		t.retryAfter++
	}
	t.record("request "+path, layerTransport, worker, start, end)
	return resp, nil
}

// noteDecode records one DecodeRecords call over n records.
func (t *tracer) noteDecode(start, end time.Time, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decodeNs += end.Sub(start).Nanoseconds()
	t.decoded += n
	t.record("decode", "harness", "", start, end)
}

// timeRecover times a coordinator recovering a finished campaign's
// journal (coord.New with Resume), the restart path.
func (t *tracer) timeRecover(cfg coord.Config) error {
	start := time.Now()
	c, err := coord.New(cfg)
	end := time.Now()
	if err != nil {
		return err
	}
	if err := c.Close(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recoverMs = append(t.recoverMs, float64(end.Sub(start).Nanoseconds())/1e6)
	t.record("recover", "checkpoint", cfg.Campaign, start, end)
	return nil
}

// phaseLayer names the layer a fleet timeline phase belongs to.
var phaseLayer = map[string]string{
	obs.PhaseBuild: "testbed", obs.PhaseIdle: "fleet", obs.PhaseRun: "fleet",
	obs.PhasePersist: "checkpoint", obs.PhaseScan: "scan", obs.PhaseDiscover: "discover",
	obs.PhaseFuzz: "fuzz",
}

// phases folds every timeline into spans and per-phase totals: the wall
// time per phase, and each job's build/scan/discover durations in ms.
func (t *tracer) phases() (total map[string]time.Duration, perJob map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total = map[string]time.Duration{}
	perJob = map[string][]float64{}
	for _, tl := range t.timelines {
		for _, iv := range tl.Snapshot().Intervals {
			total[iv.Phase] += iv.Dur()
			if iv.Phase != obs.PhaseIdle {
				perJob[iv.Phase] = append(perJob[iv.Phase], float64(iv.Dur().Nanoseconds())/1e6)
			}
			layer := phaseLayer[iv.Phase]
			if layer == "" {
				layer = iv.Phase
			}
			t.record(iv.Phase, layer, iv.Job, iv.Start, iv.End)
		}
	}
	t.timelines = nil
	return total, perJob
}

// traceCounters are the telemetry counters whose deltas over the traced
// phase give per-layer work and failure counts.
var traceCounters = []string{
	"protocol_frames_decoded_total", "protocol_decode_fail_total",
	"radio_tx_frames_total", "radio_rx_frames_total", "radio_frames_lost_total",
	"device_retransmissions_total",
	"security_s0_decrypt_total", "security_s2_decrypt_total",
	"security_s0_auth_fail_total", "security_s2_auth_fail_total",
	"security_keyctx_hits_total", "security_keyctx_miss_total",
	"oracle_events_total", "fuzz_findings_total", "fuzz_duplicates_total",
	"chaos_deliveries_total", "chaos_dropped_total", "chaos_corrupted_total",
	"chaos_duplicated_total", "chaos_delayed_total", "chaos_partitioned_total",
	"checkpoint_bytes_total", "checkpoint_fsyncs_total",
}

// readCounters snapshots traceCounters from the process-wide registry.
func readCounters() map[string]int64 {
	out := make(map[string]int64, len(traceCounters))
	for _, name := range traceCounters {
		out[name] = telemetry.Default().Counter(name).Load()
	}
	return out
}

// writeSpans writes the recorded spans and the ledger as one JSON file.
func (t *tracer) writeSpans(path string, ledger map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := map[string]any{"spans": t.spans, "ledger": ledger}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
