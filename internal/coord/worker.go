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

	"zcover/internal/fleet"
)

// Runner executes one leased job to completion and returns its
// journal-ready serialised outcome plus the attempt count. The runner
// owns isolation and retries — harness.LeaseRunner wraps each job in a
// single-job fleet (fresh testbed, panic recovery, MaxAttempts) exactly
// like a local campaign would.
type Runner func(job fleet.Job) (json.RawMessage, int, error)

// Retry delays while the coordinator is unreachable: the first retry
// waits retryBackoff, and the delay doubles per consecutive failure up to
// maxRetryBackoff.
const (
	retryBackoff    = 100 * time.Millisecond
	maxRetryBackoff = 5 * time.Second
)

// WorkerConfig tunes RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// ID names this worker in leases and status. Required.
	ID string
	// Runner executes leased jobs. Required.
	Runner Runner
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
	// Ran counts jobs executed to an outcome.
	Ran int
	// Uploaded counts results the coordinator acknowledged, duplicates
	// included.
	Uploaded int
	// Duplicates counts uploads the coordinator already had (another
	// worker finished the job first).
	Duplicates int
	// Retries counts coordinator requests that had to be retried.
	Retries int
}

// worker is the per-invocation state of RunWorker.
type worker struct {
	cfg    WorkerConfig
	client *http.Client
	stats  WorkerStats
}

// RunWorker drains leases from the coordinator until the campaign
// completes: lease → execute → upload, with exponential backoff whenever
// the coordinator is unreachable. It returns when the coordinator
// reports done, the campaign fails, or ctx ends. A ctx cancellation
// mid-job abandons the job without reporting failure — that is the
// "killed worker" case the lease deadline exists for.
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerStats, error) {
	if cfg.Coordinator == "" || cfg.ID == "" || cfg.Runner == nil {
		return WorkerStats{}, fmt.Errorf("coord: worker needs a coordinator URL, an ID, and a runner")
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = time.Minute
	}
	w := &worker{cfg: cfg, client: cfg.Client}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
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

// execute runs one leased job and uploads the outcome.
func (w *worker) execute(ctx context.Context, lease LeaseReply) error {
	w.stats.Leased++
	mWorkerLeases.Inc()
	w.logf("job %d (%s): leased, running", lease.JobIndex, lease.Job.Label())
	body, attempts, err := w.cfg.Runner(*lease.Job)
	if err != nil {
		if ctx.Err() != nil {
			// Killed mid-job: vanish silently and let the lease expire;
			// the job will be re-issued and reproduced byte-identically.
			return ctx.Err()
		}
		// A terminal job failure (the runner already retried) must reach
		// the coordinator, or the campaign would re-issue it forever.
		_ = w.upload(ctx, ResultRequest{
			Worker: w.cfg.ID, JobIndex: lease.JobIndex,
			SpecHash: lease.SpecHash, Error: err.Error(),
		})
		return fmt.Errorf("coord: job %s: %w", lease.Job.Label(), err)
	}
	w.stats.Ran++
	return w.upload(ctx, ResultRequest{
		Worker: w.cfg.ID, JobIndex: lease.JobIndex,
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
	backoff := retryBackoff
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
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// postOnce sends one JSON request without retries.
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
