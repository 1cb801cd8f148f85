package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"zcover/internal/checkpoint"
	"zcover/internal/fleet"
)

// Runner executes one leased job to completion and returns its
// journal-ready serialised outcome plus the attempt count. The runner
// owns isolation and retries — harness.LeaseRunner wraps each job in a
// single-job fleet (fresh testbed, panic recovery, MaxAttempts) exactly
// like a local campaign would.
type Runner func(job fleet.Job) (json.RawMessage, int, error)

// WorkerConfig tunes RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// ID names this worker in leases and status. Required.
	ID string
	// Runner executes leased jobs. Required.
	Runner Runner
	// Dir, when non-empty, keeps a local checkpoint journal of completed
	// jobs: a worker killed after finishing a job but before its upload
	// landed re-uploads the cached bytes on restart instead of
	// re-executing. The journal carries the coordinator's manifest, so a
	// stale cache from a different campaign is refused.
	Dir string
	// Resume permits continuing an existing local journal.
	Resume bool
	// Heartbeat is the keep-alive interval while a job runs; zero means
	// a third of the lease TTL the coordinator granted.
	Heartbeat time.Duration
	// Backoff is the initial retry delay when the coordinator is
	// unreachable; it doubles per consecutive failure up to MaxBackoff.
	// Zero means 100ms.
	Backoff time.Duration
	// MaxBackoff caps the retry delay; zero means 5s.
	MaxBackoff time.Duration
	// RetryBudget bounds how long one request keeps retrying. A worker
	// that cannot reach the coordinator for this long is orphaned — the
	// coordinator is gone for good, not restarting — and exits with the
	// last error instead of spinning forever. Zero means one minute.
	RetryBudget time.Duration
	// Client is the HTTP client; nil means a 30s-timeout default.
	Client *http.Client
	// Log, when non-nil, receives one line per lease/upload event.
	Log io.Writer
}

// WorkerStats summarises one RunWorker invocation.
type WorkerStats struct {
	// Leased counts jobs granted to this worker.
	Leased int
	// Ran counts jobs actually executed (Leased minus cache hits).
	Ran int
	// Cached counts jobs served from the local checkpoint journal.
	Cached int
	// Uploaded counts results the coordinator accepted fresh.
	Uploaded int
	// Duplicates counts uploads the coordinator already had (another
	// worker finished first, or a resumed re-upload).
	Duplicates int
	// Retries counts coordinator requests that had to be retried.
	Retries int
}

// worker is the per-invocation state of RunWorker.
type worker struct {
	cfg      WorkerConfig
	client   *http.Client
	manifest ManifestReply
	journal  *checkpoint.Journal
	cache    map[int]checkpoint.JobRecord
	stats    WorkerStats
}

// RunWorker drains leases from the coordinator until the campaign
// completes: lease → execute (heartbeating) → upload, with exponential
// backoff whenever the coordinator is unreachable. It returns when the
// coordinator reports done, the campaign fails, or ctx ends. A ctx
// cancellation mid-job abandons the job without reporting failure —
// that is the "killed worker" case the lease deadline exists for.
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerStats, error) {
	if cfg.Coordinator == "" || cfg.ID == "" || cfg.Runner == nil {
		return WorkerStats{}, fmt.Errorf("coord: worker needs a coordinator URL, an ID, and a runner")
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = time.Minute
	}
	w := &worker{cfg: cfg, client: cfg.Client}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}
	if err := w.post(ctx, "/manifest", LeaseRequest{Worker: cfg.ID}, &w.manifest); err != nil {
		return w.stats, err
	}
	if cfg.Dir != "" {
		if err := w.openCache(); err != nil {
			return w.stats, err
		}
		defer w.journal.Close()
	}
	for {
		var lease LeaseReply
		if err := w.post(ctx, "/lease", LeaseRequest{Worker: cfg.ID}, &lease); err != nil {
			return w.stats, err
		}
		switch {
		case lease.Done:
			return w.stats, nil
		case lease.RetryAfter > 0:
			if err := sleep(ctx, lease.RetryAfter); err != nil {
				return w.stats, err
			}
		default:
			if err := w.execute(ctx, lease); err != nil {
				return w.stats, err
			}
		}
	}
}

// openCache creates or recovers the worker's local checkpoint journal,
// stamped with the coordinator's manifest. The filename carries the
// worker ID so several workers can share one directory.
func (w *worker) openCache() error {
	journal, recs, err := checkpoint.Open(
		checkpoint.JournalPath(w.cfg.Dir, w.manifest.Campaign+"-worker-"+w.cfg.ID),
		checkpoint.Manifest{Campaign: w.manifest.Campaign, SpecHash: w.manifest.SpecHash, TotalJobs: w.manifest.TotalJobs},
		w.cfg.Resume)
	if err != nil {
		return err
	}
	w.journal, w.cache = journal, recs
	return nil
}

// execute runs one leased job (or serves it from the local cache) and
// uploads the outcome.
func (w *worker) execute(ctx context.Context, lease LeaseReply) error {
	w.stats.Leased++
	mWorkerLeases.Inc()
	if rec, ok := w.cache[lease.JobIndex]; ok {
		w.logf("job %d (%s): cached locally, re-uploading", lease.JobIndex, lease.Job.Label())
		w.stats.Cached++
		mWorkerCached.Inc()
		return w.upload(ctx, ResultRequest{
			Worker: w.cfg.ID, LeaseID: lease.LeaseID, JobIndex: lease.JobIndex,
			SpecHash: lease.SpecHash, Attempts: rec.Attempts, Body: rec.Body,
		})
	}

	// Keep the lease alive while the job runs. Stale heartbeats (the
	// coordinator restarted, or the lease expired under a long pause)
	// are ignored: the result is idempotent either way.
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := w.cfg.Heartbeat
		if interval <= 0 {
			interval = lease.TTL / 3
		}
		if interval <= 0 {
			interval = DefaultLeaseTTL / 3
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				_ = w.postOnce("/heartbeat", HeartbeatRequest{Worker: w.cfg.ID, LeaseID: lease.LeaseID}, nil)
			}
		}
	}()
	w.logf("job %d (%s): leased %s, running", lease.JobIndex, lease.Job.Label(), lease.LeaseID)
	body, attempts, err := w.cfg.Runner(*lease.Job)
	stopHB()
	<-hbDone
	if err != nil {
		if ctx.Err() != nil {
			// Killed mid-job: vanish silently and let the lease expire;
			// the job will be re-issued and reproduced byte-identically.
			return ctx.Err()
		}
		// A terminal job failure (the runner already retried) must reach
		// the coordinator, or the campaign would re-issue it forever.
		_ = w.upload(ctx, ResultRequest{
			Worker: w.cfg.ID, LeaseID: lease.LeaseID, JobIndex: lease.JobIndex,
			SpecHash: lease.SpecHash, Error: err.Error(),
		})
		return fmt.Errorf("coord: job %s: %w", lease.Job.Label(), err)
	}
	w.stats.Ran++
	rec := checkpoint.JobRecord{
		Index: lease.JobIndex, Label: lease.Job.Label(), Attempts: attempts, Body: body,
	}
	if w.journal != nil {
		// Local durability before upload, mirroring the fleet's persist
		// rule: work whose journal append failed is not durable and must
		// not be acknowledged anywhere.
		if err := w.journal.Append(rec); err != nil {
			return err
		}
		w.cache[lease.JobIndex] = rec
	}
	return w.upload(ctx, ResultRequest{
		Worker: w.cfg.ID, LeaseID: lease.LeaseID, JobIndex: lease.JobIndex,
		SpecHash: lease.SpecHash, Attempts: attempts, Body: body,
	})
}

// upload posts one result, retrying transient failures.
func (w *worker) upload(ctx context.Context, req ResultRequest) error {
	var reply ResultReply
	if err := w.post(ctx, "/result", req, &reply); err != nil {
		return err
	}
	if req.Error == "" {
		w.stats.Uploaded++
		mWorkerUploads.Inc()
		if reply.Status == "duplicate" {
			w.stats.Duplicates++
		}
		w.logf("job %d: upload %s", req.JobIndex, reply.Status)
	}
	return nil
}

// httpError is a non-2xx coordinator answer. Server-side trouble (5xx)
// is retryable; client errors (4xx — spec mismatch, conflicting bytes)
// are terminal.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("coord: coordinator answered %d: %s", e.status, e.msg)
}

// retryable reports whether an error is worth another attempt.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status >= 500 || he.status == http.StatusTooManyRequests
	}
	return true // transport-level failure: coordinator down or restarting
}

// post sends one JSON request with retry/backoff on transient failures,
// bounded by the retry budget.
func (w *worker) post(ctx context.Context, path string, req, reply any) error {
	backoff := w.cfg.Backoff
	var waited time.Duration
	for {
		err := w.postOnce(path, req, reply)
		if err == nil {
			return nil
		}
		if !retryable(err) {
			return err
		}
		if waited+backoff > w.cfg.RetryBudget {
			return fmt.Errorf("coord: coordinator unreachable for %s on %s, giving up: %w", waited, path, err)
		}
		w.stats.Retries++
		mWorkerRetries.Inc()
		w.logf("%s: %v (retrying in %s)", path, err, backoff)
		if serr := sleep(ctx, backoff); serr != nil {
			return fmt.Errorf("coord: giving up on %s: %w (last error: %v)", path, serr, err)
		}
		waited += backoff
		if backoff *= 2; backoff > w.cfg.MaxBackoff {
			backoff = w.cfg.MaxBackoff
		}
	}
}

// postOnce sends one JSON request without retries. GET-shaped endpoints
// (/manifest) accept POST bodies too, which keeps the client uniform.
func (w *worker) postOnce(path string, req, reply any) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("coord: encoding %s request: %w", path, err)
	}
	resp, err := w.client.Post(w.cfg.Coordinator+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("coord: %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("coord: reading %s reply: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{status: resp.StatusCode, msg: string(bytes.TrimSpace(body))}
	}
	if reply == nil {
		return nil
	}
	if err := json.Unmarshal(body, reply); err != nil {
		return fmt.Errorf("coord: decoding %s reply: %w", path, err)
	}
	return nil
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// logf writes one worker log line when logging is configured.
func (w *worker) logf(format string, args ...any) {
	if w.cfg.Log == nil {
		return
	}
	fmt.Fprintf(w.cfg.Log, "worker %s: "+format+"\n", append([]any{w.cfg.ID}, args...)...)
}
