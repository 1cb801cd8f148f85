package fuzz

import (
	"fmt"
	"time"

	"zcover/internal/oracle"
	"zcover/internal/protocol"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/scan"
)

// Process-wide fuzzing metrics, counted by every engine's test cycle.
// Detection latency is the simulated time between injecting the trigger
// packet and the oracle observing its effect — the black-box analogue of
// the paper's human verification delay.
var (
	mPackets         = telemetry.Default().Counter("fuzz_packets_total")
	mFindings        = telemetry.Default().Counter("fuzz_findings_total")
	mDuplicates      = telemetry.Default().Counter("fuzz_duplicates_total")
	mDetectLatencyMS = telemetry.Default().Histogram("oracle_detect_latency_ms", 1, 10, 100, 1000, 10000)
)

// SamplePeriod spaces the periodic timeline samples of Fig. 12.
const SamplePeriod = 20 * time.Second

// Cycle is the campaign bookkeeping of the fuzzing test cycle, shared by
// the generational, coverage-guided and VFuzz engines: the budgets, the
// result being built, the oracle events, finding dedupe and construction,
// the liveness ping, the recovery wait, and the pacing between tests. An
// engine supplies only what it sends and how long it listens.
//
// A test is Inject, the engine's send, Drain, the engine's liveness
// policy (Ping, AwaitRecovery), then Pace.
type Cycle struct {
	dongle *dongle.Dongle
	clock  *vtime.SimClock
	home   protocol.HomeID
	target protocol.NodeID
	cfg    Config

	res        *Result
	start      time.Time
	txAt       time.Time
	nextSample time.Duration
	pending    []oracle.Event
	seen       map[string]bool
}

// NewCycle builds the test cycle of a campaign against the target
// controller. The budget must be positive.
func NewCycle(d *dongle.Dongle, home protocol.HomeID, target protocol.NodeID, cfg Config) (*Cycle, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("fuzz: budget %s is not positive", cfg.Duration)
	}
	if cfg.PingAttempts <= 0 {
		cfg.PingAttempts = 1
	}
	return &Cycle{
		dongle: d, clock: d.Clock(), home: home, target: target, cfg: cfg,
		seen: make(map[string]bool),
	}, nil
}

// Observe receives oracle events; subscribe it to the testbed bus before
// Run (bus.Subscribe(engine.Observe)).
func (c *Cycle) Observe(ev oracle.Event) { c.pending = append(c.pending, ev) }

// Begin starts the campaign clock on the result the cycle builds.
// Events observed before it are dropped.
func (c *Cycle) Begin(res *Result) {
	c.res = res
	c.start = c.clock.Now()
	c.nextSample = SamplePeriod
	c.pending = nil
}

// elapsed reports campaign time.
func (c *Cycle) elapsed() time.Duration { return c.clock.Now().Sub(c.start) }

// Exhausted reports whether either campaign budget — simulated time or,
// when configured, the frame cap — has run out.
func (c *Cycle) Exhausted() bool {
	if c.cfg.FrameBudget > 0 && c.res.PacketsSent >= c.cfg.FrameBudget {
		return true
	}
	return c.elapsed() >= c.cfg.Duration
}

// Inject counts one test packet the engine is about to put on the air
// and marks the instant, the origin of detection latency and of
// impairment grading.
func (c *Cycle) Inject() {
	c.txAt = c.clock.Now()
	c.res.PacketsSent++
	mPackets.Inc()
}

// Drain folds the pending oracle observations into the result, logging
// each unseen signature as a finding triggered by the last injected
// packet. It reports whether a new unique finding was logged.
func (c *Cycle) Drain(trigger []byte) bool {
	found := false
	for _, ev := range c.pending {
		sig := ev.Signature()
		if c.seen[sig] {
			c.res.Duplicates++
			mDuplicates.Inc()
			continue
		}
		c.seen[sig] = true
		found = true
		mFindings.Inc()
		if lat := ev.At.Sub(c.txAt); lat >= 0 {
			mDetectLatencyMS.Observe(float64(lat) / float64(time.Millisecond))
		}
		if c.cfg.Impairment != nil && ev.Confidence == oracle.ConfidenceConfirmed &&
			c.cfg.Impairment.ImpairedSince(c.txAt) {
			ev.Confidence = oracle.ConfidenceSuspect
		}
		finding := Finding{
			Signature:      sig,
			Event:          ev,
			TriggerPayload: append([]byte{}, trigger...), // trigger may be a reused buffer
			Packets:        c.res.PacketsSent,
			Elapsed:        c.elapsed(),
		}
		if c.cfg.Recorder != nil {
			finding.Trace = c.cfg.Recorder.Snapshot()
		}
		c.res.Findings = append(c.res.Findings, finding)
		if c.cfg.OnFinding != nil {
			c.cfg.OnFinding(finding)
		}
		c.sample(finding.Elapsed)
	}
	c.pending = c.pending[:0]
	return found
}

// Ping is one liveness check: up to PingAttempts NOP probes, so a single
// lost probe on an impaired channel does not read as a controller hang.
func (c *Cycle) Ping() bool {
	for i := 0; i < c.cfg.PingAttempts; i++ {
		if c.dongle.Ping(c.home, scan.AttackerNodeID, c.target) {
			return true
		}
	}
	return false
}

// AwaitRecovery re-probes every dongle.PingRetry until the target answers
// again or the campaign budget runs out — the "controller hangs" handling
// of the feedback loop. It returns the time spent waiting.
func (c *Cycle) AwaitRecovery() time.Duration {
	before := c.clock.Now()
	for c.elapsed() < c.cfg.Duration {
		c.clock.Advance(dongle.PingRetry)
		if c.Ping() {
			break
		}
	}
	return c.clock.Now().Sub(before)
}

// Pace idles the inter-test gap and takes the periodic timeline samples
// the campaign clock has passed.
func (c *Cycle) Pace() {
	c.clock.Advance(dongle.InterTestGap)
	for c.elapsed() >= c.nextSample {
		c.sample(c.nextSample)
		c.nextSample += SamplePeriod
	}
}

// End stamps the campaign's elapsed time on its result and returns it.
func (c *Cycle) End() *Result {
	c.res.Elapsed = c.elapsed()
	return c.res
}

// sample appends a timeline point at campaign time at.
func (c *Cycle) sample(at time.Duration) {
	c.res.Timeline = append(c.res.Timeline, Sample{Elapsed: at, Packets: c.res.PacketsSent, Unique: len(c.res.Findings)})
}
