// Package coord turns one campaign into leased work units spread across
// many worker processes (or machines) and merges the results back into
// the exact byte stream a single-machine run would have produced.
//
// # Roles
//
// The Coordinator owns the campaign: the full job list, its spec hash
// (the same CRC-64 fingerprint internal/checkpoint journals carry), and
// a crash-safe journal of every completed job. It hands out Leases —
// (job, deadline) pairs — over a small HTTP/JSON protocol, re-issues
// leases whose deadline passed (a crashed or straggling worker), and
// accepts journal-record uploads.
//
// Workers are stateless: RunWorker loops lease → execute → upload,
// retrying with exponential backoff when the coordinator is unreachable.
// A worker keeps nothing between jobs. A killed worker, or one whose job
// outlives its lease, costs a re-issue: the job runs again elsewhere and
// the straggler's upload, if it lands, is deduplicated byte for byte.
//
// # Protocol
//
//	GET  /manifest  campaign identity: name, spec hash, job count, TTL
//	POST /lease     {worker} → a leased job, a retry-after backoff, or done
//	POST /result    {job_index, spec_hash, body} journals one outcome
//	GET  /status    live JSON state (also mounted at /coord on -obs-addr)
//
// A worker told to retry later sleeps RetryAfter before it polls again,
// so a coordinator process that exits on completion first keeps serving
// that long: the parked worker then hears done, not connection-refused.
//
// # Determinism
//
// Every job is fully determined by its spec, so executing it twice —
// on different workers, after a lease expired, before and after a
// coordinator restart — produces byte-identical outcomes. The
// coordinator therefore treats leases as scheduling hints, not
// correctness state: a result upload is valid whenever its spec hash
// matches the manifest, even from a lease it no longer remembers. A
// duplicate upload (a late straggler finishing after its job was
// re-issued and completed elsewhere) is deduplicated by byte
// comparison; bytes that differ are corruption and are refused. Leases live only in memory — after a coordinator restart the
// journal restores every completed job and the open ones are simply
// re-leased. internal/harness pins the invariant: coordinator + N
// workers == the single-machine run, byte-for-byte, tables and bug log
// included, under worker kills and coordinator restarts.
//
// # Local runs
//
// The Coordinator is also the whole of a local checkpointed run: the
// campaign layer builds one over the job list, runs only the jobs
// Journaled does not hold, and hands each outcome to Submit — no HTTP,
// no leases, no extra goroutines. Resume and distribution therefore share
// one journal path.
//
// DESIGN.md §16 documents the lease protocol and the failure matrix.
package coord

import (
	"encoding/json"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/telemetry"
)

// DefaultLeaseTTL is the lease deadline granted to a worker per job.
// Campaigns are simulated, so wall-clock per job is short; two minutes
// tolerates slow CI runners without stalling re-issue long.
const DefaultLeaseTTL = 2 * time.Minute

// Process-wide coordinator and worker metrics.
var (
	mLeases     = telemetry.Default().Counter("coord_leases_issued_total")
	mExpired    = telemetry.Default().Counter("coord_leases_expired_total")
	mResults    = telemetry.Default().Counter("coord_results_total")
	mDuplicates = telemetry.Default().Counter("coord_results_duplicate_total")
	mRejected   = telemetry.Default().Counter("coord_results_rejected_total")

	mWorkerLeases  = telemetry.Default().Counter("coord_worker_leases_total")
	mWorkerUploads = telemetry.Default().Counter("coord_worker_uploads_total")
	mWorkerRetries = telemetry.Default().Counter("coord_worker_retries_total")
)

// ManifestReply is GET /manifest: the campaign the coordinator serves,
// for scripts and probes that need its identity before leasing.
type ManifestReply struct {
	// Campaign names the experiment ("table5", "smoke", ...).
	Campaign string `json:"campaign"`
	// SpecHash fingerprints the full job list (checkpoint.SpecHash).
	SpecHash string `json:"spec_hash"`
	// TotalJobs is the campaign's job count.
	TotalJobs int `json:"total_jobs"`
	// LeaseTTL is the lease deadline: a job not uploaded within it is
	// re-issued.
	LeaseTTL time.Duration `json:"lease_ttl"`
}

// LeaseRequest is POST /lease: a worker asking for a work unit.
type LeaseRequest struct {
	// Worker identifies the requester (status, straggler attribution).
	Worker string `json:"worker"`
}

// LeaseReply answers a lease request. Exactly one of Done, RetryAfter>0,
// or Job non-nil holds.
type LeaseReply struct {
	// Done reports the campaign is complete (or failed): the worker
	// should exit its loop.
	Done bool `json:"done,omitempty"`
	// RetryAfter, when positive, means every remaining job is currently
	// leased: poll again after this long.
	RetryAfter time.Duration `json:"retry_after,omitempty"`
	// JobIndex is the job's position in the full job list.
	JobIndex int `json:"job_index,omitempty"`
	// Job is the complete job spec to execute.
	Job *fleet.Job `json:"job,omitempty"`
	// SpecHash echoes the manifest so the result upload can prove which
	// job list the outcome belongs to.
	SpecHash string `json:"spec_hash,omitempty"`
}

// ResultRequest is POST /result: one completed (or terminally failed)
// job's outcome. Body is the caller-serialised outcome journaled
// byte-for-byte, exactly as a local checkpoint would store it.
type ResultRequest struct {
	Worker   string `json:"worker"`
	JobIndex int    `json:"job_index"`
	// SpecHash must match the manifest: an upload from a drifted job
	// list is refused, never journaled.
	SpecHash string          `json:"spec_hash"`
	Attempts int             `json:"attempts,omitempty"`
	Body     json.RawMessage `json:"body,omitempty"`
	// Error, when non-empty, reports the job failed on the worker after
	// its retries; the coordinator fails the campaign (all-or-nothing,
	// matching fleet.FirstError semantics).
	Error string `json:"error,omitempty"`
}

// ResultReply reports how an upload was handled.
type ResultReply struct {
	// Status is "accepted" for a fresh outcome or "duplicate" for a
	// byte-identical re-upload (a late straggler).
	Status string `json:"status"`
}

// Status is the coordinator's live state (GET /status, and /coord on the
// observability server).
type Status struct {
	Campaign   string        `json:"campaign"`
	SpecHash   string        `json:"spec_hash"`
	TotalJobs  int           `json:"total_jobs"`
	Done       int           `json:"done"`
	Leased     int           `json:"leased"`
	Failed     string        `json:"failed,omitempty"`
	LeaseTTL   time.Duration `json:"lease_ttl"`
	Expired    int64         `json:"leases_expired"`
	Duplicates int64         `json:"results_duplicate"`
	Rejected   int64         `json:"results_rejected"`
	// Workers summarises every worker the coordinator has heard from.
	Workers map[string]WorkerStatus `json:"workers,omitempty"`
}

// WorkerStatus is one worker's footprint on the coordinator.
type WorkerStatus struct {
	Leases   int       `json:"leases"`
	Results  int       `json:"results"`
	LastSeen time.Time `json:"last_seen"`
}
