// Package oracle provides the anomaly-observation channel of the emulated
// testbed. In the paper, crashes and misbehaviour are confirmed by a human
// researcher watching the Z-Wave PC Controller program, the SmartThings
// app, and the devices themselves ("Feedback & crash verification",
// §IV-A). This package replaces that human with a typed event bus: device
// models emit an Event when a vulnerability model fires, and the fuzzing
// engines subscribe to classify and deduplicate their findings.
package oracle

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"zcover/internal/coverage"
	"zcover/internal/telemetry"
)

// Process-wide oracle metrics: every anomaly observation counts, with the
// bounded-outage durations (Table III's finite hangs) histogrammed.
var (
	mEvents        = telemetry.Default().Counter("oracle_events_total")
	mOutageSeconds = telemetry.Default().Histogram("oracle_outage_seconds", 1, 10, 60, 600, 3600)
)

// Kind classifies an observed anomaly. The kinds map one-to-one onto the
// observable effects of the paper's Table III bugs.
type Kind int

// Anomaly kinds. Enum starts at 1.
const (
	// NodeTampered: an existing node's stored properties were altered
	// (bug 01, CVE-2024-50929; Fig 8).
	NodeTampered Kind = iota + 1
	// RogueNodeAdded: a fake node appeared in the controller's memory
	// (bug 02, CVE-2024-50920; Fig 9).
	RogueNodeAdded
	// NodeRemoved: a valid node vanished from the controller's memory
	// (bug 03, CVE-2024-50931; Fig 10).
	NodeRemoved
	// DatabaseOverwritten: the device table was wholesale replaced
	// (bug 04, CVE-2024-50930; Fig 11).
	DatabaseOverwritten
	// AppDoS: the companion smartphone app stopped responding
	// (bug 05, CVE-2024-50921).
	AppDoS
	// HostCrash: the PC controller host program crashed
	// (bug 06, CVE-2023-6640).
	HostCrash
	// HostDoS: the PC controller host program wedged persistently
	// (bug 13).
	HostDoS
	// ServiceHang: the controller stopped servicing traffic for a bounded
	// period (bugs 07–11, 14, 15).
	ServiceHang
	// WakeupCleared: a sleeping device's wake-up interval was erased from
	// controller memory (bug 12, CVE-2024-50928).
	WakeupCleared
	// MACParsingFault: the chipset mis-handled a malformed MAC frame (the
	// legacy one-day class of bugs VFuzz finds; Table V).
	MACParsingFault
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NodeTampered:
		return "node-tampered"
	case RogueNodeAdded:
		return "rogue-node-added"
	case NodeRemoved:
		return "node-removed"
	case DatabaseOverwritten:
		return "database-overwritten"
	case AppDoS:
		return "app-dos"
	case HostCrash:
		return "host-crash"
	case HostDoS:
		return "host-dos"
	case ServiceHang:
		return "service-hang"
	case WakeupCleared:
		return "wakeup-cleared"
	case MACParsingFault:
		return "mac-parsing-fault"
	default:
		return "Kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Confidence grades how certain the oracle is that an anomaly reflects a
// real implementation flaw rather than channel impairment. The zero value
// is Confirmed, so events from unimpaired campaigns are unchanged.
type Confidence int

// Confidence grades.
const (
	// ConfidenceConfirmed: the anomaly was observed on a clean channel (or
	// the observation window contained no injected faults).
	ConfidenceConfirmed Confidence = iota
	// ConfidenceSuspect: injected channel faults overlapped the
	// observation window, so the silence or misbehaviour may be an
	// artefact of impairment rather than a controller bug.
	ConfidenceSuspect
)

// String implements fmt.Stringer.
func (c Confidence) String() string {
	switch c {
	case ConfidenceConfirmed:
		return "confirmed"
	case ConfidenceSuspect:
		return "suspect"
	default:
		return "Confidence(" + strconv.Itoa(int(c)) + ")"
	}
}

// Event is one observed anomaly.
type Event struct {
	// At is the simulated instant the anomaly was observed.
	At time.Time
	// Device is the testbed index of the affected device (e.g. "D4").
	Device string
	// Kind classifies the anomaly.
	Kind Kind
	// Class and Cmd identify the application payload that triggered it
	// (zero for MAC-level faults).
	Class byte
	Cmd   byte
	// Duration bounds the outage for ServiceHang events; zero means the
	// effect is persistent until manual intervention ("Infinite" in
	// Table III).
	Duration time.Duration
	// Detail is a human-readable description.
	Detail string
	// Confidence grades the observation; it is not part of Signature, so
	// a suspect and a confirmed sighting of the same effect deduplicate to
	// one bug.
	Confidence Confidence
}

// Signature returns the deduplication key used to count unique
// vulnerabilities: same observable effect from the same (class, command)
// vector is the same bug.
func (e Event) Signature() string {
	return fmt.Sprintf("%s/0x%02X/0x%02X", e.Kind, e.Class, e.Cmd)
}

// Key is the comparable form of Signature: two events have equal keys
// exactly when they have equal signatures.
type Key struct {
	Kind       Kind
	Class, Cmd byte
}

// Key returns the event's deduplication key without formatting it.
func (e Event) Key() Key { return Key{Kind: e.Kind, Class: e.Class, Cmd: e.Cmd} }

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("[%s] %s %s cmdcl=0x%02X cmd=0x%02X dur=%s: %s",
		e.At.Format("15:04:05.000"), e.Device, e.Kind, e.Class, e.Cmd, e.Duration, e.Detail)
}

// Bus collects anomaly events and fans them out to subscribers. The zero
// value is ready to use. Bus is safe for concurrent use.
type Bus struct {
	mu     sync.Mutex
	events []Event
	// subs is copy-on-write: Subscribe and Unsubscribe install a new
	// slice, so Emit fans out over the one it read without copying it.
	subs   []subscriber
	nextID uint64

	// cov, when non-nil, receives one coverage observation per emitted
	// event (SetCoverage). Like subscribers, the hook runs outside the
	// bus lock, synchronously on the emitting goroutine — for campaign
	// testbeds that is the single simulation-driving goroutine, which is
	// what the non-thread-safe Collector requires.
	cov *coverage.Collector
}

// subscriber pairs a callback with its handle identity.
type subscriber struct {
	id uint64
	fn func(Event)
}

// Subscription is the handle returned by Subscribe; Unsubscribe detaches
// the callback. Campaign engines must unsubscribe when their run ends so
// reusing a testbed (sequential trials, fleet retries) cannot leak events
// into a stale observer.
type Subscription struct {
	bus *Bus
	id  uint64
}

// Unsubscribe removes the subscription's callback from the bus. It is
// idempotent and safe on a nil subscription.
func (s *Subscription) Unsubscribe() {
	if s == nil || s.bus == nil {
		return
	}
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, sub := range b.subs {
		if sub.id == s.id {
			b.subs = slices.Delete(slices.Clone(b.subs), i, i+1)
			break
		}
	}
	s.bus = nil
}

// Subscribe registers a callback invoked synchronously for every event
// emitted after the call, and returns the handle that detaches it.
func (b *Bus) Subscribe(fn func(Event)) *Subscription {
	if fn == nil {
		panic("oracle: Subscribe called with nil callback")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	b.subs = append(slices.Clip(b.subs), subscriber{id: b.nextID, fn: fn})
	return &Subscription{bus: b, id: b.nextID}
}

// Subscribers reports how many callbacks are currently attached.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// SetCoverage attaches (or, with nil, detaches) a behavioral-coverage
// collector that observes every emitted event — the oracle-proximity axis
// of the coverage map.
func (b *Bus) SetCoverage(cov *coverage.Collector) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cov = cov
}

// Emit records an event and notifies subscribers.
func (b *Bus) Emit(e Event) {
	mEvents.Inc()
	if e.Duration > 0 {
		mOutageSeconds.Observe(e.Duration.Seconds())
	}
	b.mu.Lock()
	b.events = append(b.events, e)
	cov := b.cov
	subs := b.subs
	b.mu.Unlock()
	if cov != nil {
		cov.OnOracle(int(e.Kind), e.Class, e.Cmd)
	}
	for _, sub := range subs {
		sub.fn(e)
	}
}

// Events returns a copy of all recorded events in emission order.
func (b *Bus) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// UniqueSignatures returns the distinct event signatures observed, in
// first-seen order.
func (b *Bus) UniqueSignatures() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := make(map[string]bool, len(b.events))
	var out []string
	for _, e := range b.events {
		sig := e.Signature()
		if !seen[sig] {
			seen[sig] = true
			out = append(out, sig)
		}
	}
	return out
}

// Reset discards recorded events (subscribers stay).
func (b *Bus) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = nil
}
