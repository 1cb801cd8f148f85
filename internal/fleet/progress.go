package fleet

import (
	"fmt"
	"time"

	"zcover/internal/obs"
	"zcover/internal/vtime"
	"zcover/internal/zcover/fuzz"
)

// Progress is a snapshot of a running fleet. All counters are monotonic
// except Queued/Running, which shrink as jobs drain.
type Progress struct {
	// Total is the job count the fleet was built with.
	Total int
	// Queued jobs have not started; Running are in flight; Done finished
	// successfully; Failed exhausted their attempts.
	Queued, Running, Done, Failed int
	// Retried counts attempts that failed and were rescheduled on a fresh
	// testbed.
	Retried int
	// Findings is the unique-vulnerability count of the jobs that are
	// Done: a job's findings count once it has succeeded and been
	// persisted, and failed attempts and failed jobs add nothing.
	Findings int
	// Packets is the test-packet count of the jobs that are Done.
	Packets int64
	// SimTime is the simulated campaign time of the jobs that are Done.
	SimTime time.Duration
	// Wall is the real time since Run started.
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

// Observer is the channel a Runner reports through. Each attempt gets its
// own observer, so what a failed attempt reported is simply dropped. A nil
// *Observer discards everything, so a runner can also run outside a fleet.
type Observer struct {
	// timeline/worker/job route Phase calls to the worker's lane, stamped
	// on the attempt's testbed clock; timeline may be nil (no-op).
	timeline *obs.Timeline
	worker   int
	job      string
	clock    *vtime.SimClock

	// The attempt's report, added to Progress when the job is Done.
	findings int
	packets  int64
	sim      time.Duration
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

// Report records the campaign's outcome: its unique findings, test
// packets and simulated time. The fleet adds them to Progress once the
// job has succeeded and been persisted. Call it once, after the campaign
// ends; a later call replaces an earlier one.
func (o *Observer) Report(res *fuzz.Result) {
	if o == nil {
		return
	}
	o.findings, o.packets, o.sim = len(res.Findings), int64(res.PacketsSent), res.Elapsed
}
