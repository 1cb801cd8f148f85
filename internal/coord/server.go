package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"zcover/internal/checkpoint"
	"zcover/internal/fleet"
)

// Config describes the campaign a Coordinator serves.
type Config struct {
	// Campaign names the experiment; it keys the journal filename.
	Campaign string
	// Jobs is the full job list, in render order.
	Jobs []fleet.Job
	// SpecHash fingerprints Campaign+Jobs (harness.CampaignSpecHash);
	// result uploads must echo it and drifted journals are refused.
	SpecHash string
	// Dir is the checkpoint directory holding the coordinator's journal.
	// The journal is the coordinator's only durable state: a restarted
	// coordinator recovers every completed job from it and re-leases the
	// rest. A local checkpointed run is this same coordinator used
	// in-process, so `experiments -resume` can render the journal.
	Dir string
	// Resume permits recovering an existing journal; without it an
	// existing journal is an error, exactly like the CLI -resume rule.
	Resume bool
	// LeaseTTL is the lease deadline; zero means DefaultLeaseTTL. When
	// every remaining job is leased, /lease answers with a retry-after
	// hint of one tenth of it (Coordinator.RetryAfter).
	LeaseTTL time.Duration
	// now is the test clock hook; nil means time.Now.
	now func() time.Time
}

// jobState tracks one job's lifecycle on the coordinator.
type jobState struct {
	label    string
	done     bool
	body     json.RawMessage
	attempts int
	// deadline ends the job's current lease (zero when never leased). A
	// lease is scheduling state only: it never gates result uploads and
	// is not persisted. An expired lease is replaced on the next /lease
	// poll.
	deadline time.Time
}

// Coordinator is the campaign-side half of the protocol. Construct with
// New, mount Handler on an HTTP server, and Wait for completion.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	jobs     []jobState
	journal  *checkpoint.Journal
	done     int
	failure  error
	finished chan struct{}
	workers  map[string]*WorkerStatus
	expired  int64
	dupes    int64
	rejected int64
}

// New builds a coordinator for the campaign, creating its journal (or
// recovering an existing one when cfg.Resume). Jobs already journaled
// are complete immediately; a coordinator whose journal covers every job
// is born finished.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Campaign == "" || len(cfg.Jobs) == 0 || cfg.SpecHash == "" {
		return nil, fmt.Errorf("coord: campaign, jobs, and spec hash are all required")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("coord: a checkpoint dir is required — the journal is the coordinator's durable state")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Coordinator{
		cfg:      cfg,
		jobs:     make([]jobState, len(cfg.Jobs)),
		finished: make(chan struct{}),
		workers:  make(map[string]*WorkerStatus),
	}
	for i, job := range cfg.Jobs {
		c.jobs[i].label = job.Label()
	}
	journal, recs, err := checkpoint.Open(checkpoint.JournalPath(cfg.Dir, cfg.Campaign), checkpoint.Manifest{
		Campaign: cfg.Campaign, SpecHash: cfg.SpecHash, TotalJobs: len(cfg.Jobs),
	}, cfg.Resume)
	if err != nil {
		return nil, err
	}
	c.journal = journal
	for idx, rec := range recs {
		c.jobs[idx].done = true
		c.jobs[idx].body = rec.Body
		c.jobs[idx].attempts = rec.Attempts
		c.done++
		checkpoint.NoteResumed()
	}
	if c.done == len(c.jobs) {
		close(c.finished)
	}
	return c, nil
}

// Handler returns the coordinator's HTTP mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/manifest", c.handleManifest)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/result", c.handleResult)
	mux.Handle("/status", c.StatusHandler())
	return mux
}

// StatusHandler serves the live Status JSON — mounted at /status on the
// coordinator's own mux and at /coord on the observability server.
func (c *Coordinator) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	})
}

// Wait blocks until every job has a journaled outcome (nil) or the
// campaign failed terminally on some worker (that job's error), or ctx
// ends. It returns at once on completion; a process that exits
// afterwards keeps its server up for RetryAfter first, so workers
// polling late are told Done.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.finished:
	case <-ctx.Done():
		return fmt.Errorf("coord: %s interrupted with %d of %d jobs complete",
			c.cfg.Campaign, c.doneCount(), len(c.cfg.Jobs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// RetryAfter is the backoff /lease hands a worker while every remaining
// job is leased: one tenth of the lease TTL.
func (c *Coordinator) RetryAfter() time.Duration { return c.cfg.LeaseTTL / 10 }

// doneCount returns the completed-job count.
func (c *Coordinator) doneCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// Records returns every journaled outcome in job order. Valid only after
// Wait returned nil.
func (c *Coordinator) Records() ([]checkpoint.JobRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return nil, c.failure
	}
	if c.done != len(c.jobs) {
		return nil, fmt.Errorf("coord: %s incomplete: %d of %d jobs", c.cfg.Campaign, c.done, len(c.jobs))
	}
	out := make([]checkpoint.JobRecord, len(c.jobs))
	for i := range c.jobs {
		out[i] = c.record(i)
	}
	return out, nil
}

// Journaled returns the outcomes the journal already holds, in job order:
// what a local run replays instead of executing.
func (c *Coordinator) Journaled() []checkpoint.JobRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []checkpoint.JobRecord
	for i := range c.jobs {
		if c.jobs[i].done {
			out = append(out, c.record(i))
		}
	}
	return out
}

// record is job i's journal record. Callers hold mu.
func (c *Coordinator) record(i int) checkpoint.JobRecord {
	js := &c.jobs[i]
	return checkpoint.JobRecord{Index: i, Label: js.label, Attempts: js.attempts, Body: js.body}
}

// Close releases the journal. Completed records are already durable.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journal.Close()
}

// Status snapshots the coordinator's live state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		Campaign: c.cfg.Campaign, SpecHash: c.cfg.SpecHash,
		TotalJobs: len(c.jobs), Done: c.done, LeaseTTL: c.cfg.LeaseTTL,
		Expired: c.expired, Duplicates: c.dupes, Rejected: c.rejected,
		Workers: make(map[string]WorkerStatus, len(c.workers)),
	}
	if c.failure != nil {
		s.Failed = c.failure.Error()
	}
	now := c.cfg.now()
	for i := range c.jobs {
		if !c.jobs[i].done && now.Before(c.jobs[i].deadline) {
			s.Leased++
		}
	}
	for id, w := range c.workers {
		s.Workers[id] = *w
	}
	return s
}

// touchWorker records that a worker was heard from. Callers hold mu.
func (c *Coordinator) touchWorker(id string) *WorkerStatus {
	w := c.workers[id]
	if w == nil {
		w = &WorkerStatus{}
		c.workers[id] = w
	}
	w.LastSeen = c.cfg.now()
	return w
}

// handleManifest answers GET /manifest.
func (c *Coordinator) handleManifest(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ManifestReply{
		Campaign: c.cfg.Campaign, SpecHash: c.cfg.SpecHash,
		TotalJobs: len(c.cfg.Jobs), LeaseTTL: c.cfg.LeaseTTL,
	})
}

// handleLease answers POST /lease: the next unleased (or expired-lease)
// job in index order, a retry-after hint, or done.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorker(req.Worker)
	if c.done == len(c.jobs) || c.failure != nil {
		writeJSON(w, http.StatusOK, LeaseReply{Done: true})
		return
	}
	now := c.cfg.now()
	for i := range c.jobs {
		js := &c.jobs[i]
		if js.done {
			continue
		}
		if !js.deadline.IsZero() {
			if now.Before(js.deadline) {
				continue
			}
			// No upload by the deadline (the holder died, or its job runs
			// longer than the TTL): re-issue. The job is idempotent, so
			// if the straggler finishes anyway its upload is
			// deduplicated against the new holder's.
			c.expired++
			mExpired.Inc()
		}
		js.deadline = now.Add(c.cfg.LeaseTTL)
		c.touchWorker(req.Worker).Leases++
		mLeases.Inc()
		job := c.cfg.Jobs[i]
		writeJSON(w, http.StatusOK, LeaseReply{JobIndex: i, Job: &job, SpecHash: c.cfg.SpecHash})
		return
	}
	writeJSON(w, http.StatusOK, LeaseReply{RetryAfter: c.RetryAfter()})
}

// handleResult answers POST /result: the JSON face of Submit.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !readJSON(w, r, &req) {
		return
	}
	reply, err := c.Submit(req)
	if err != nil {
		code := http.StatusInternalServerError
		var re *rejection
		if errors.As(err, &re) {
			code = re.code
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// rejection is a result Submit refused; code is the HTTP status it maps
// to. Any other Submit error is a journal failure (500, retryable).
type rejection struct {
	code int
	msg  string
}

func (e *rejection) Error() string { return e.msg }

// Submit validates one job outcome against the manifest, journals it
// durably, and deduplicates it: leases play no part, so stragglers,
// restarted coordinators, and an in-process local run all converge on
// the same byte stream. The record is fsync'd before Submit returns, so
// a nil error is an acknowledgement that survives a crash. A worker's
// failure report (req.Error) fails the campaign.
func (c *Coordinator) Submit(req ResultRequest) (ResultReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorker(req.Worker)
	reject := func(code int, format string, args ...any) (ResultReply, error) {
		c.rejected++
		mRejected.Inc()
		return ResultReply{}, &rejection{code: code, msg: fmt.Sprintf(format, args...)}
	}
	if req.SpecHash != c.cfg.SpecHash {
		return reject(http.StatusUnprocessableEntity, "spec hash %s does not match manifest %s — the worker ran a different job list",
			req.SpecHash, c.cfg.SpecHash)
	}
	if req.JobIndex < 0 || req.JobIndex >= len(c.jobs) {
		return reject(http.StatusUnprocessableEntity, "job index %d out of range [0,%d)", req.JobIndex, len(c.jobs))
	}
	js := &c.jobs[req.JobIndex]
	if req.Error != "" {
		// A terminal worker-side failure fails the campaign: every table
		// needs every row (fleet.FirstError semantics).
		if c.failure == nil && !js.done {
			c.failure = fmt.Errorf("coord: job %s failed on worker %s: %s", js.label, req.Worker, req.Error)
			close(c.finished)
		}
		return ResultReply{Status: "accepted"}, nil
	}
	if len(req.Body) == 0 {
		return reject(http.StatusUnprocessableEntity, "empty result body")
	}
	// Compare and keep the body as the journal stores it (json.Marshal's
	// compact, HTML-escaped form), so a re-sent body matches after a restart.
	body, err := json.Marshal(req.Body)
	if err != nil {
		return reject(http.StatusUnprocessableEntity, "malformed result body: %v", err)
	}
	if js.done {
		if string(js.body) != string(body) {
			return reject(http.StatusConflict, "job %s already journaled with different bytes — non-deterministic worker or corrupted upload", js.label)
		}
		c.dupes++
		mDuplicates.Inc()
		return ResultReply{Status: "duplicate"}, nil
	}
	if err := c.journal.Append(checkpoint.JobRecord{
		Index: req.JobIndex, Label: js.label, Attempts: req.Attempts, Body: body,
	}); err != nil {
		// A result that cannot be made durable must not be acknowledged.
		return ResultReply{}, err
	}
	js.done = true
	js.body = body
	js.attempts = req.Attempts
	c.done++
	c.touchWorker(req.Worker).Results++
	mResults.Inc()
	// A failed campaign closed finished already; results that arrive
	// after the failure still journal, but must not close it again.
	if c.done == len(c.jobs) && c.failure == nil {
		close(c.finished)
	}
	return ResultReply{Status: "accepted"}, nil
}

// readJSON decodes a request body, answering 400 on malformed input.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON encodes v with a stable field order.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// SortedWorkers lists a Status's worker IDs deterministically for
// rendering.
func (s Status) SortedWorkers() []string {
	ids := make([]string, 0, len(s.Workers))
	for id := range s.Workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
