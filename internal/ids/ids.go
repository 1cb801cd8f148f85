// Package ids implements the lightweight intrusion detection system the
// paper proposes as attack remediation for legacy devices (§V-B, citing
// the authors' ZMAD model-based detector). It is a passive monitor: it
// trains a model of the network's normal traffic — membership, command
// vocabulary, per-source rates — and afterwards raises typed alerts for
// frames that deviate. Every attack ZCover injects violates at least one
// of its rules, so a smart home running this monitor would have seen the
// Fig. 2 intrusion that the controller itself processed silently.
package ids

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/security"
	"zcover/internal/vtime"
)

// Rule identifies which detection model a frame violated.
type Rule int

// Detection rules. Enum starts at 1.
const (
	// RuleMalformedFrame flags frames the codec rejects (bad LEN or
	// checksum) — the shape of MAC-layer fuzzing.
	RuleMalformedFrame Rule = iota + 1
	// RuleUnknownSource flags traffic from a node ID never seen during
	// training.
	RuleUnknownSource
	// RuleClearTextProtocol flags the network-management classes 0x01 and
	// 0x02 appearing unencrypted — normal networks never carry them in
	// application traffic, and they are the vector of seven Table III bugs.
	RuleClearTextProtocol
	// RuleUnknownCommand flags (class, command) pairs outside the trained
	// vocabulary.
	RuleUnknownCommand
	// RuleRateAnomaly flags a source exceeding its trained frame rate by
	// a large factor (flooding).
	RuleRateAnomaly
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case RuleMalformedFrame:
		return "malformed-frame"
	case RuleUnknownSource:
		return "unknown-source"
	case RuleClearTextProtocol:
		return "cleartext-protocol-class"
	case RuleUnknownCommand:
		return "unknown-command"
	case RuleRateAnomaly:
		return "rate-anomaly"
	default:
		return "Rule(" + strconv.Itoa(int(r)) + ")"
	}
}

// Severity grades an alert.
type Severity int

// Severities. Enum starts at 1.
const (
	SeverityLow Severity = iota + 1
	SeverityMedium
	SeverityHigh
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SeverityLow:
		return "low"
	case SeverityMedium:
		return "medium"
	case SeverityHigh:
		return "high"
	default:
		return "Severity(" + strconv.Itoa(int(s)) + ")"
	}
}

// Alert is one detection.
type Alert struct {
	// At is the simulated detection instant.
	At time.Time
	// Rule names the violated model.
	Rule Rule
	// Severity grades the alert.
	Severity Severity
	// Src is the offending source node (zero for malformed frames).
	Src protocol.NodeID
	// Detail describes the violation.
	Detail string
}

// String implements fmt.Stringer.
func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s/%s src=%s: %s",
		a.At.Format("15:04:05.000"), a.Severity, a.Rule, a.Src, a.Detail)
}

// rateWindow is the sliding window for per-source rate tracking.
const rateWindow = 10 * time.Second

// rateFactor is how many times the trained peak rate a source may reach
// before the rate model fires.
const rateFactor = 4

// Monitor is the IDS instance. Construct with New; call Train with normal
// traffic flowing, then read Alerts as the network runs.
type Monitor struct {
	clock *vtime.SimClock
	home  protocol.HomeID
	trx   *radio.Transceiver

	mu       sync.Mutex
	training bool
	// learned model
	knownSources map[protocol.NodeID]bool
	vocabulary   map[[2]byte]bool
	peakRate     int // frames per rateWindow per source, training peak
	// detection state
	recent map[protocol.NodeID][]time.Time
	alerts []Alert
	frames int
}

// New attaches a monitor to the medium, watching one home ID.
func New(m *radio.Medium, region radio.Region, home protocol.HomeID) *Monitor {
	mon := &Monitor{
		clock:        m.Clock(),
		home:         home,
		knownSources: make(map[protocol.NodeID]bool),
		vocabulary:   make(map[[2]byte]bool),
		recent:       make(map[protocol.NodeID][]time.Time),
		peakRate:     1,
	}
	mon.trx = m.Attach("ids", region)
	mon.trx.SetReceiver(mon.onCapture)
	return mon
}

// Train observes the air for the window (advancing the simulated clock)
// and builds the baseline model from whatever normal traffic flows.
func (m *Monitor) Train(window time.Duration) {
	m.mu.Lock()
	m.training = true
	m.mu.Unlock()
	m.clock.Advance(window)
	m.mu.Lock()
	m.training = false
	m.recent = make(map[protocol.NodeID][]time.Time)
	m.mu.Unlock()
}

// Alerts returns a copy of the raised alerts in order.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alert, len(m.alerts))
	copy(out, m.alerts)
	return out
}

// AlertsByRule tallies alerts per rule.
func (m *Monitor) AlertsByRule() map[Rule]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Rule]int)
	for _, a := range m.alerts {
		out[a.Rule]++
	}
	return out
}

// FramesSeen reports total frames observed (training + detection).
func (m *Monitor) FramesSeen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frames
}

// KnownSources reports the trained membership model.
func (m *Monitor) KnownSources() []protocol.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]protocol.NodeID, 0, len(m.knownSources))
	for id := range m.knownSources {
		out = append(out, id)
	}
	return out
}

// Reset clears alerts but keeps the trained model.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alerts = nil
	m.recent = make(map[protocol.NodeID][]time.Time)
}

// onCapture is the monitor's receive path.
func (m *Monitor) onCapture(c radio.Capture) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frames++

	home, src, _, ok := protocol.SniffNetworkInfo(c.Raw)
	if !ok || home != m.home {
		return
	}
	// The medium's shared decode: the frame (and its payload, which
	// aliases the capture buffer) is done with before this callback
	// returns — learn and detect copy what they keep into the model maps.
	f, err := c.Frame()
	if err != nil {
		if !m.training {
			m.raise(RuleMalformedFrame, SeverityMedium, src,
				fmt.Sprintf("undecodable frame (%d bytes): %v", len(c.Raw), err))
		}
		return
	}
	if f.IsAck() {
		return
	}

	if m.training {
		m.learn(f)
		return
	}
	m.detect(f)
}

// learn folds one normal frame into the baseline.
func (m *Monitor) learn(f *protocol.Frame) {
	m.knownSources[f.Src] = true
	if len(f.Payload) >= 2 {
		m.vocabulary[[2]byte{f.Payload[0], f.Payload[1]}] = true
	}
	now := m.clock.Now()
	m.recent[f.Src] = trim(append(m.recent[f.Src], now), now)
	if n := len(m.recent[f.Src]); n > m.peakRate {
		m.peakRate = n
	}
}

// detect evaluates one post-training frame against the model.
func (m *Monitor) detect(f *protocol.Frame) {
	now := m.clock.Now()

	if !m.knownSources[f.Src] {
		m.raise(RuleUnknownSource, SeverityHigh, f.Src,
			fmt.Sprintf("traffic from node %s never seen during training", f.Src))
	}

	if len(f.Payload) >= 1 {
		class := cmdclass.ClassID(f.Payload[0])
		switch {
		case class == cmdclass.ClassZWaveProtocol || class == cmdclass.ClassProprietaryMfg:
			// The hidden network-management classes must never appear as
			// clear-text application traffic (root cause of bugs 01-05,
			// 12, 14).
			m.raise(RuleClearTextProtocol, SeverityHigh, f.Src,
				fmt.Sprintf("clear-text network-management class %s", class))
		case class != 0x00 && !security.IsEncapsulation(f.Payload) && len(f.Payload) >= 2:
			key := [2]byte{f.Payload[0], f.Payload[1]}
			if !m.vocabulary[key] {
				m.raise(RuleUnknownCommand, SeverityMedium, f.Src,
					fmt.Sprintf("command 0x%02X/0x%02X outside trained vocabulary", key[0], key[1]))
			}
		}
	}

	m.recent[f.Src] = trim(append(m.recent[f.Src], now), now)
	if len(m.recent[f.Src]) > m.peakRate*rateFactor {
		m.raise(RuleRateAnomaly, SeverityMedium, f.Src,
			fmt.Sprintf("%d frames in %s (trained peak %d)", len(m.recent[f.Src]), rateWindow, m.peakRate))
		m.recent[f.Src] = nil // re-arm after alerting
	}
}

// raise appends an alert.
func (m *Monitor) raise(rule Rule, sev Severity, src protocol.NodeID, detail string) {
	m.alerts = append(m.alerts, Alert{
		At: m.clock.Now(), Rule: rule, Severity: sev, Src: src, Detail: detail,
	})
}

// trim drops timestamps older than the rate window.
func trim(ts []time.Time, now time.Time) []time.Time {
	cut := now.Add(-rateWindow)
	for len(ts) > 0 && ts[0].Before(cut) {
		ts = ts[1:]
	}
	return ts
}
