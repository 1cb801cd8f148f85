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
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
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

// Config tunes a campaign. Every engine — generational, coverage-guided
// and VFuzz — is built from one Config; the pacing of the test cycle is
// fixed (dongle.DefaultResponseWindow, dongle.InterTestGap,
// dongle.PingRetry, SamplePeriod).
type Config struct {
	// Duration is the fuzzing budget (Testing_T of Algorithm 1); it must
	// be positive. The generational engine gives each queued class a
	// window (C_T) of Duration/len(queue); a new unique finding restarts
	// the window, as crashes keep Algorithm 1 on the current class.
	Duration time.Duration
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
	*Cycle
	queue []*cmdclass.Class
	mut   *mutate.Mutator

	strategy Strategy
	device   string

	// crashedCmds records (class, command) pairs that made the target
	// unresponsive. The engine consults its own log and stops re-sending
	// them: re-triggering a known hang only burns campaign time.
	crashedCmds map[[2]byte]bool
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
	c, err := NewCycle(d, fp.Home, fp.Controller, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{
		Cycle:       c,
		queue:       queue,
		mut:         mut,
		strategy:    strategy,
		device:      device,
		crashedCmds: make(map[[2]byte]bool),
	}, nil
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
	streams := e.begin()

	// Stage 1: quick pass across the whole prioritised queue.
	_ = e.quickPass(streams, func(payload []byte) error {
		e.runPayload(payload)
		return nil
	})

	// Stage 2: deep pass, C_T per class (Algorithm 1 lines 4-15).
	perClass := e.cfg.Duration / time.Duration(len(e.queue))
	for _, stream := range streams {
		if e.Exhausted() {
			break
		}
		windowUsed := time.Duration(0)
		windowStart := e.clock.Now()
		for !e.Exhausted() {
			if windowUsed+e.clock.Now().Sub(windowStart) >= perClass {
				break
			}
			newFinding, recovery := e.runPayload(e.drawFiltered(stream))
			if newFinding {
				// Line 14's contrapositive: a crash keeps the fuzzer here.
				windowUsed = 0
				windowStart = e.clock.Now()
			}
			windowStart = windowStart.Add(recovery) // C_T counts mutation time only
		}
	}
	return e.finish()
}

// begin starts the campaign and opens one mutation stream per queued
// class.
func (e *Engine) begin() []*mutate.Stream {
	e.Begin(&Result{Strategy: e.strategy, Device: e.device, ClassesCovered: len(e.queue)})
	streams := make([]*mutate.Stream, len(e.queue))
	for i, cls := range e.queue {
		streams[i] = e.mut.Stream(cls)
	}
	return streams
}

// quickPass sends every class's cheap class-wide sweeps in priority
// order through test, stopping at the first error.
func (e *Engine) quickPass(streams []*mutate.Stream, test func(payload []byte) error) error {
	for _, stream := range streams {
		if e.Exhausted() {
			break
		}
		for n := stream.QuickSize(); n > 0 && !e.Exhausted(); n-- {
			if err := test(e.drawFiltered(stream)); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish closes the campaign with a final timeline sample at its end.
func (e *Engine) finish() *Result {
	res := e.End()
	e.sample(res.Elapsed)
	return res
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

// runPayload injects one application payload and runs the observe /
// liveness / recovery cycle on it. It reports whether a new unique finding
// was logged and how long recovery waiting took. The coverage-guided
// engine calls it directly with corpus variants.
func (e *Engine) runPayload(payload []byte) (newFinding bool, recovery time.Duration) {
	e.Inject()
	ex, err := e.dongle.SendAndObserve(e.home, scan.AttackerNodeID, e.target,
		payload, dongle.DefaultResponseWindow)
	if err != nil {
		return false, 0 // unencodable mutant: skip, as a dongle would
	}
	newFinding = e.Drain(payload)

	// Feedback loop: liveness check via NOP ping; wait out hangs. A hang
	// marks the (class, command) pair as crashing so it is not re-sent,
	// and the measured outage is attributed to the finding it produced —
	// this is how a black-box fuzzer learns the durations of Table III.
	// (The MAC ack is sent before the application layer executes, so a
	// frame that hangs the controller still gets acked — every new finding
	// is therefore liveness-checked explicitly.)
	if (!ex.Acked || newFinding) && !e.Ping() {
		if len(payload) >= 2 {
			e.crashedCmds[[2]byte{payload[0], payload[1]}] = true
		}
		recovery = e.AwaitRecovery()
		if newFinding {
			e.res.Findings[len(e.res.Findings)-1].MeasuredOutage = recovery
		}
	}
	e.Pace()
	return newFinding, recovery
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
