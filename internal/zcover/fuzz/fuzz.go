// Package fuzz implements ZCover's fuzzing engine: Algorithm 1 of the
// paper. It walks the prioritised command-class queue, drives the
// position-sensitive mutator, injects each test packet, monitors liveness
// with NOP pings, and logs unique findings as the oracle (the stand-in for
// the human verifier) confirms them.
package fuzz

import (
	"fmt"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/oracle"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// Process-wide fuzzing metrics. Detection latency is the simulated time
// between injecting the trigger packet and the oracle observing its effect
// — the black-box analogue of the paper's human verification delay.
var (
	mPackets         = telemetry.Default().Counter("fuzz_packets_total")
	mFindings        = telemetry.Default().Counter("fuzz_findings_total")
	mDuplicates      = telemetry.Default().Counter("fuzz_duplicates_total")
	mDetectLatencyMS = telemetry.Default().Histogram("oracle_detect_latency_ms", 1, 10, 100, 1000, 10000)
)

// Strategy names the engine configuration (Table VI's three rows).
type Strategy string

// Strategies.
const (
	// StrategyFull is ZCover with every feature on: known + unknown
	// CMDCLs, position-sensitive mutation.
	StrategyFull Strategy = "zcover-full"
	// StrategyKnownOnly is the β ablation: listed CMDCLs only.
	StrategyKnownOnly Strategy = "zcover-beta"
	// StrategyRandom is the γ ablation: random CMDCLs, naive mutation.
	StrategyRandom Strategy = "zcover-gamma"
	// StrategyCoverage is the coverage-guided engine (CovEngine): the same
	// spec-driven quick pass, then corpus exploitation steered by the
	// behavioral coverage map instead of fixed per-class windows.
	StrategyCoverage Strategy = "zcover-cov"
)

// Config tunes a campaign.
type Config struct {
	// Duration is the fuzzing budget (Testing_T of Algorithm 1).
	Duration time.Duration
	// PerClass is the per-class window (C_T). Zero derives
	// Duration/len(queue). A new unique finding restarts the window, as
	// crashes keep Algorithm 1 on the current class.
	PerClass time.Duration
	// ResponseWindow bounds the wait after each test packet.
	ResponseWindow time.Duration
	// InterTestGap is idle time between tests (radio turnaround, logging).
	InterTestGap time.Duration
	// PingRetry is the liveness re-probe interval while the target is
	// unresponsive.
	PingRetry time.Duration
	// SamplePeriod spaces the timeline samples for Fig. 12. Zero means
	// one sample per 20 s of simulated time.
	SamplePeriod time.Duration
	// OnFinding, if set, is invoked synchronously for each new unique
	// finding — live progress for interactive callers.
	OnFinding func(Finding)
	// Recorder, if set, is the packet flight recorder attached to the
	// campaign's radio medium; each new finding carries a snapshot of it
	// (the surrounding frames) as its replayable post-mortem trace.
	Recorder *telemetry.FlightRecorder
	// Impairment, if set, tells the engine whether the channel injected
	// faults during an observation window. Findings whose window overlaps
	// injected faults are logged with suspect (rather than confirmed)
	// confidence — impairment-induced silence must not masquerade as a
	// vulnerability. The chaos injector implements this.
	Impairment ImpairmentMonitor
	// PingAttempts is how many NOP probes a single liveness check may send
	// before declaring the target unresponsive (>1 tolerates lossy
	// channels). Zero means one probe, the clean-channel behaviour.
	PingAttempts int
	// FrameBudget, when positive, caps the number of test packets the
	// campaign may inject; the engine stops at whichever of Duration and
	// FrameBudget runs out first. A test cycle costs a little over 500 ms
	// of simulated time, so a cap of Duration/500ms is never reached. A
	// lower cap starves the generational engine, whose per-class windows
	// come from Duration: with a 7,200-frame cap under a 24 h Duration it
	// found 910 unique bugs against the coverage engine's 946 over 70
	// clean campaigns (EXPERIMENTS.md).
	FrameBudget int
}

// ImpairmentMonitor reports whether channel faults were injected at or
// after a given simulated instant.
type ImpairmentMonitor interface {
	ImpairedSince(t time.Time) bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults(queueLen int) Config {
	if c.Duration <= 0 {
		c.Duration = 24 * time.Hour
	}
	if c.PerClass <= 0 && queueLen > 0 {
		c.PerClass = c.Duration / time.Duration(queueLen)
	}
	if c.ResponseWindow <= 0 {
		c.ResponseWindow = dongle.DefaultResponseWindow
	}
	if c.InterTestGap <= 0 {
		c.InterTestGap = 100 * time.Millisecond
	}
	if c.PingRetry <= 0 {
		c.PingRetry = 5 * time.Second
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = 20 * time.Second
	}
	if c.PingAttempts <= 0 {
		c.PingAttempts = 1
	}
	return c
}

// Finding is one unique vulnerability discovery.
type Finding struct {
	// Signature deduplicates findings (effect + trigger vector).
	Signature string
	// Event is the oracle observation that confirmed the finding.
	Event oracle.Event
	// TriggerPayload is the application payload that fired it.
	TriggerPayload []byte
	// Packets is the number of test packets sent up to (and including)
	// the trigger.
	Packets int
	// Elapsed is the campaign time of the discovery.
	Elapsed time.Duration
	// MeasuredOutage is the service interruption the engine itself
	// observed through its liveness probes (zero when the target kept
	// responding — memory-tampering bugs do not take the radio down).
	// Granularity is the ping retry interval.
	MeasuredOutage time.Duration
	// Trace is the flight-recorder snapshot taken at the moment of
	// discovery: the last frames on the air up to and including the
	// trigger. Empty when no recorder was attached (Config.Recorder).
	Trace []telemetry.FrameRecord
}

// Sample is one point of the packets-over-time curve (Fig. 12).
type Sample struct {
	Elapsed time.Duration
	Packets int
	Unique  int
}

// Result summarises a campaign.
type Result struct {
	// Strategy and Device label the run.
	Strategy Strategy
	Device   string
	// Findings lists unique discoveries in order.
	Findings []Finding
	// Duplicates counts re-triggers of known findings.
	Duplicates int
	// PacketsSent counts test packets.
	PacketsSent int
	// ClassesCovered is the queue size (Table V CMDCL column).
	ClassesCovered int
	// CommandsCovered is the confirmed-command pool size (Table V CMD
	// column); set by the caller from discovery results.
	CommandsCovered int
	// Elapsed is the total simulated campaign time.
	Elapsed time.Duration
	// Timeline holds periodic samples plus one sample per finding.
	Timeline []Sample
}

// UniqueVulnerabilities reports the headline count.
func (r *Result) UniqueVulnerabilities() int { return len(r.Findings) }

// Engine drives one campaign against one target.
type Engine struct {
	dongle *dongle.Dongle
	clock  *vtime.SimClock
	fp     scan.Fingerprint
	queue  []*cmdclass.Class
	mut    *mutate.Mutator
	cfg    Config

	strategy Strategy
	device   string

	pending []oracle.Event
	seen    map[string]bool

	// crashedCmds records (class, command) pairs that made the target
	// unresponsive. The engine consults its own log and stops re-sending
	// them: re-triggering a known hang only burns campaign time.
	crashedCmds map[[2]byte]bool

	// campaign state while Run is active
	start      time.Time
	res        *Result
	nextSample time.Duration
}

// New builds an engine. The caller wires the oracle bus subscription via
// Observe (typically bus.Subscribe(engine.Observe)).
func New(d *dongle.Dongle, fp scan.Fingerprint, queue []*cmdclass.Class, mut *mutate.Mutator, strategy Strategy, device string, cfg Config) (*Engine, error) {
	if d == nil || mut == nil {
		return nil, fmt.Errorf("fuzz: dongle and mutator are required")
	}
	if len(queue) == 0 {
		return nil, fmt.Errorf("fuzz: empty class queue")
	}
	return &Engine{
		dongle:      d,
		clock:       d.Clock(),
		fp:          fp,
		queue:       queue,
		mut:         mut,
		cfg:         cfg.withDefaults(len(queue)),
		strategy:    strategy,
		device:      device,
		seen:        make(map[string]bool),
		crashedCmds: make(map[[2]byte]bool),
	}, nil
}

// Observe receives oracle events; subscribe it to the testbed bus before
// Run. Events observed while no campaign is active are dropped.
func (e *Engine) Observe(ev oracle.Event) {
	e.pending = append(e.pending, ev)
}

// Run executes the campaign and returns the result.
//
// The schedule is Algorithm 1 with a two-stage refinement: a *quick pass*
// first sends every class's cheap class-wide sweeps (bare commands and
// single-position mutations) in priority order, so that even a short
// campaign touches the whole queue; a *deep pass* then revisits each class
// for its per-class window C_T, continuing its stream with the structural,
// positional, and correlation mutations. A new unique finding restarts the
// current window (crashes keep Algorithm 1's attention on the class), and
// hang-recovery time is compensated — C_T measures mutation time, not time
// spent waiting for the controller to come back.
func (e *Engine) Run() *Result {
	res := &Result{
		Strategy:       e.strategy,
		Device:         e.device,
		ClassesCovered: len(e.queue),
	}
	e.start = e.clock.Now()
	e.res = res
	e.nextSample = e.cfg.SamplePeriod
	e.pending = nil

	streams := make([]*mutate.Stream, len(e.queue))
	for i, cls := range e.queue {
		streams[i] = e.mut.Stream(cls)
	}

	// Stage 1: quick pass across the whole prioritised queue.
	for _, stream := range streams {
		if e.budgetExhausted() {
			break
		}
		for n := stream.QuickSize(); n > 0 && !e.budgetExhausted(); n-- {
			e.oneTest(stream)
		}
	}

	// Stage 2: deep pass, C_T per class (Algorithm 1 lines 4-15).
	for _, stream := range streams {
		if e.budgetExhausted() {
			break
		}
		windowUsed := time.Duration(0)
		windowStart := e.clock.Now()
		for !e.budgetExhausted() {
			if windowUsed+e.clock.Now().Sub(windowStart) >= e.cfg.PerClass {
				break
			}
			newFinding, recovery := e.oneTest(stream)
			if newFinding {
				// Line 14's contrapositive: a crash keeps the fuzzer here.
				windowUsed = 0
				windowStart = e.clock.Now()
			}
			windowStart = windowStart.Add(recovery) // C_T counts mutation time only
		}
	}

	res.Elapsed = e.elapsed()
	res.Timeline = append(res.Timeline, Sample{
		Elapsed: res.Elapsed, Packets: res.PacketsSent, Unique: len(res.Findings),
	})
	return res
}

// elapsed reports campaign time.
func (e *Engine) elapsed() time.Duration { return e.clock.Now().Sub(e.start) }

// budgetExhausted reports whether either campaign budget — simulated time
// or, when configured, the frame cap — has run out.
func (e *Engine) budgetExhausted() bool {
	if e.cfg.FrameBudget > 0 && e.res.PacketsSent >= e.cfg.FrameBudget {
		return true
	}
	return e.elapsed() >= e.cfg.Duration
}

// maxFilteredDraws bounds how many consecutive known-crash payloads the
// engine will discard before giving up on the current stream position.
const maxFilteredDraws = 512

// drawFiltered pulls the stream's next payload, discarding draws that
// target commands the engine already knows to crash the controller.
func (e *Engine) drawFiltered(stream *mutate.Stream) []byte {
	payload := stream.Next()
	for i := 0; i < maxFilteredDraws && len(payload) >= 2 && e.crashedCmds[[2]byte{payload[0], payload[1]}]; i++ {
		payload = stream.Next()
	}
	return payload
}

// oneTest runs one send/observe/liveness cycle. It reports whether a new
// unique finding was logged and how long recovery waiting took.
func (e *Engine) oneTest(stream *mutate.Stream) (newFinding bool, recovery time.Duration) {
	return e.runPayload(e.drawFiltered(stream))
}

// runPayload injects one application payload and runs the observe /
// liveness / recovery cycle on it — the engine-independent half of a test.
// The coverage-guided engine calls it directly with corpus variants.
func (e *Engine) runPayload(payload []byte) (newFinding bool, recovery time.Duration) {
	txAt := e.clock.Now()
	ex, err := e.dongle.SendAndObserve(e.fp.Home, scan.AttackerNodeID, e.fp.Controller,
		payload, e.cfg.ResponseWindow)
	e.res.PacketsSent++
	mPackets.Inc()
	if err != nil {
		return false, 0 // unencodable mutant: skip, as a dongle would
	}

	newFinding = e.drainEvents(e.res, payload, e.elapsed(), txAt)

	// Feedback loop: liveness check via NOP ping; wait out hangs. A hang
	// marks the (class, command) pair as crashing so it is not re-sent,
	// and the measured outage is attributed to the finding it produced —
	// this is how a black-box fuzzer learns the durations of Table III.
	// (The MAC ack is sent before the application layer executes, so a
	// frame that hangs the controller still gets acked — every new finding
	// is therefore liveness-checked explicitly.)
	if (!ex.Acked || newFinding) && !e.ping() {
		if len(payload) >= 2 {
			e.crashedCmds[[2]byte{payload[0], payload[1]}] = true
		}
		before := e.clock.Now()
		e.awaitRecovery(e.start)
		recovery = e.clock.Now().Sub(before)
		if newFinding && len(e.res.Findings) > 0 {
			e.res.Findings[len(e.res.Findings)-1].MeasuredOutage = recovery
		}
	}
	e.clock.Advance(e.cfg.InterTestGap)

	for e.elapsed() >= e.nextSample {
		e.res.Timeline = append(e.res.Timeline, Sample{
			Elapsed: e.nextSample, Packets: e.res.PacketsSent, Unique: len(e.res.Findings),
		})
		e.nextSample += e.cfg.SamplePeriod
	}
	return newFinding, recovery
}

// drainEvents folds pending oracle observations into the result. It
// reports whether a new unique finding was logged. txAt is the simulated
// instant the trigger went on the air (detection-latency metric origin).
func (e *Engine) drainEvents(res *Result, payload []byte, elapsed time.Duration, txAt time.Time) bool {
	found := false
	for _, ev := range e.pending {
		sig := ev.Signature()
		if e.seen[sig] {
			res.Duplicates++
			mDuplicates.Inc()
			continue
		}
		e.seen[sig] = true
		found = true
		mFindings.Inc()
		if lat := ev.At.Sub(txAt); lat >= 0 {
			mDetectLatencyMS.Observe(float64(lat) / float64(time.Millisecond))
		}
		if e.cfg.Impairment != nil && ev.Confidence == oracle.ConfidenceConfirmed &&
			e.cfg.Impairment.ImpairedSince(txAt) {
			ev.Confidence = oracle.ConfidenceSuspect
		}
		finding := Finding{
			Signature:      sig,
			Event:          ev,
			TriggerPayload: append([]byte{}, payload...), // payload is a reused stream buffer
			Packets:        res.PacketsSent,
			Elapsed:        elapsed,
		}
		if e.cfg.Recorder != nil {
			finding.Trace = e.cfg.Recorder.Snapshot()
		}
		res.Findings = append(res.Findings, finding)
		if e.cfg.OnFinding != nil {
			e.cfg.OnFinding(finding)
		}
		res.Timeline = append(res.Timeline, Sample{
			Elapsed: elapsed, Packets: res.PacketsSent, Unique: len(res.Findings),
		})
	}
	e.pending = e.pending[:0]
	return found
}

// ping is one liveness check: up to PingAttempts NOP probes, so a single
// lost probe on an impaired channel does not read as a controller hang.
func (e *Engine) ping() bool {
	for i := 0; i < e.cfg.PingAttempts; i++ {
		if e.dongle.Ping(e.fp.Home, scan.AttackerNodeID, e.fp.Controller) {
			return true
		}
	}
	return false
}

// awaitRecovery pings until the target answers again or the campaign
// budget runs out — the "controller hangs" handling of the feedback loop.
func (e *Engine) awaitRecovery(start time.Time) {
	for e.clock.Now().Sub(start) < e.cfg.Duration {
		e.clock.Advance(e.cfg.PingRetry)
		if e.ping() {
			return
		}
	}
}

// BuildQueue assembles the class queue for a strategy:
//
//   - full: the discovery phase's prioritised 45-class pool;
//   - β: the listed classes only, still prioritised;
//   - γ: all 256 class IDs in random order.
func BuildQueue(strategy Strategy, reg *cmdclass.Registry, listed, prioritized []*cmdclass.Class, seed int64) []*cmdclass.Class {
	switch strategy {
	case StrategyKnownOnly:
		return cmdclass.PrioritizeByCommandCount(listed)
	case StrategyRandom:
		return mutate.RandomQueue(reg, seed)
	default:
		return prioritized
	}
}

// AttackerID re-exports the spoofed source for callers building packets.
const AttackerID = scan.AttackerNodeID
