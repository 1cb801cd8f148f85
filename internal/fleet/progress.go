package fleet

import (
	"fmt"
	"sync/atomic"
	"time"

	"zcover/internal/obs"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// Progress is an atomic snapshot of a running fleet. All counters are
// monotonic except Queued/Running, which shrink as jobs drain.
type Progress struct {
	// Total is the job count the fleet was built with.
	Total int
	// Queued jobs have not started; Running are in flight; Done finished
	// successfully; Failed exhausted their attempts.
	Queued, Running, Done, Failed int
	// Retried counts attempts that failed and were rescheduled on a fresh
	// testbed.
	Retried int
	// Findings is the live unique-vulnerability count across the fleet
	// (contributions from attempts that later fail are rolled back).
	Findings int
	// Packets is the live test-packet count across the fleet.
	Packets int64
	// SimTime is the total simulated campaign time completed.
	SimTime time.Duration
	// Wall is the real time since Run started (zero before Run).
	Wall time.Duration
}

// Finished reports whether every job has drained.
func (p Progress) Finished() bool { return p.Done+p.Failed == p.Total }

// SimRate is the fleet's throughput: simulated campaign time delivered
// per wall-clock second. A 7-worker fleet of healthy campaigns should
// approach 7× a single worker's rate on idle hardware.
func (p Progress) SimRate() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return p.SimTime.Seconds() / p.Wall.Seconds()
}

// String renders a one-line ticker form.
func (p Progress) String() string {
	return fmt.Sprintf("%d/%d done, %d running, %d queued, %d failed | %d findings, %d pkts | %s sim in %s (%.1fx)",
		p.Done, p.Total, p.Running, p.Queued, p.Failed,
		p.Findings, p.Packets,
		p.SimTime.Round(time.Second), p.Wall.Round(time.Millisecond), p.SimRate())
}

// Telemetry gauge names the fleet publishes its live state under. Fleet
// state is bidirectional (queues drain, failed attempts roll back), so
// every instrument is a gauge, not a counter.
const (
	MetricQueued   = "fleet_jobs_queued"
	MetricRunning  = "fleet_jobs_running"
	MetricDone     = "fleet_jobs_done"
	MetricFailed   = "fleet_jobs_failed"
	MetricRetried  = "fleet_jobs_retried"
	MetricFindings = "fleet_findings"
	MetricPackets  = "fleet_packets"
	MetricSimNanos = "fleet_sim_nanos"
)

// counters is the fleet's shared live state behind Progress snapshots. The
// telemetry registry is the single source of truth: each field is a view
// over a named gauge. Because a shared registry accumulates across
// sequential fleets (cmd/experiments points every driver at the process
// default), each fleet captures the gauges' values at construction and
// snapshots report deltas from that base — per-fleet Progress stays exact
// while the registry keeps process-wide running totals.
type counters struct {
	total     int
	startWall atomic.Int64 // unix nanos; 0 until Run starts

	queued, running, done, failed, retried *telemetry.Gauge
	findings, packets, simNanos            *telemetry.Gauge

	baseQueued, baseRunning, baseDone, baseFailed, baseRetried int64
	baseFindings, basePackets, baseSimNanos                    int64
}

// bind points the counter views at reg (nil means a private registry) and
// publishes the initial queue depth.
func (c *counters) bind(reg *telemetry.Registry, total int) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c.total = total
	c.queued = reg.Gauge(MetricQueued)
	c.running = reg.Gauge(MetricRunning)
	c.done = reg.Gauge(MetricDone)
	c.failed = reg.Gauge(MetricFailed)
	c.retried = reg.Gauge(MetricRetried)
	c.findings = reg.Gauge(MetricFindings)
	c.packets = reg.Gauge(MetricPackets)
	c.simNanos = reg.Gauge(MetricSimNanos)

	c.baseQueued = c.queued.Load()
	c.baseRunning = c.running.Load()
	c.baseDone = c.done.Load()
	c.baseFailed = c.failed.Load()
	c.baseRetried = c.retried.Load()
	c.baseFindings = c.findings.Load()
	c.basePackets = c.packets.Load()
	c.baseSimNanos = c.simNanos.Load()

	c.queued.Add(int64(total))
}

func (c *counters) start(t time.Time) {
	c.startWall.CompareAndSwap(0, t.UnixNano())
}

func (c *counters) snapshot() Progress {
	p := Progress{
		Total:    c.total,
		Queued:   int(c.queued.Load() - c.baseQueued),
		Running:  int(c.running.Load() - c.baseRunning),
		Done:     int(c.done.Load() - c.baseDone),
		Failed:   int(c.failed.Load() - c.baseFailed),
		Retried:  int(c.retried.Load() - c.baseRetried),
		Findings: int(c.findings.Load() - c.baseFindings),
		Packets:  c.packets.Load() - c.basePackets,
		SimTime:  time.Duration(c.simNanos.Load() - c.baseSimNanos),
	}
	if s := c.startWall.Load(); s != 0 {
		p.Wall = time.Since(time.Unix(0, s))
	}
	return p
}

// Observer is the metrics channel a Runner reports through. Each attempt
// gets its own observer; if the attempt fails, its contributions are
// subtracted back out so retries do not double-count.
type Observer struct {
	c        *counters
	onChange func()

	// timeline/worker/job route Phase calls to the worker's lane, stamped
	// on the attempt's testbed clock; timeline may be nil (no-op).
	timeline *obs.Timeline
	worker   int
	job      string
	clock    *vtime.SimClock

	findings int64
	packets  int64
	simNanos int64
}

// Phase attributes the worker's time, wall and simulated, to a campaign
// phase from here until the next transition (one of the obs.Phase* names
// — the harness reports scan/discover/fuzz as the pipeline advances).
// No-op without a timeline; never affects campaign results.
func (o *Observer) Phase(name string) {
	if o == nil || o.timeline == nil {
		return
	}
	o.timeline.Phase(o.worker, o.job, name, o.clock.Now())
}

// Finding records one new unique vulnerability (live — call it from the
// campaign's OnFinding callback).
func (o *Observer) Finding() {
	o.findings++
	o.c.findings.Add(1)
	if o.onChange != nil {
		o.onChange()
	}
}

// Packets adds n test packets to the fleet totals.
func (o *Observer) Packets(n int) {
	o.packets += int64(n)
	o.c.packets.Add(int64(n))
}

// SimTime adds completed simulated campaign time to the fleet totals.
func (o *Observer) SimTime(d time.Duration) {
	o.simNanos += int64(d)
	o.c.simNanos.Add(int64(d))
}

// rollback subtracts everything this attempt reported.
func (o *Observer) rollback() {
	o.c.findings.Add(-o.findings)
	o.c.packets.Add(-o.packets)
	o.c.simNanos.Add(-o.simNanos)
	o.findings, o.packets, o.simNanos = 0, 0, 0
}
