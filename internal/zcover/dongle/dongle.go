// Package dongle provides ZCover's attacker-side radio access: the
// software equivalent of the Yardstick One transceiver the paper drives
// from the fuzzing laptop. It can sniff promiscuously, inject raw or
// crafted frames, and run send-and-observe exchanges with simulated
// timing — and nothing else: ZCover never touches a device except through
// this interface, preserving the paper's black-box, external-entity design
// assumption (§III-A).
package dongle

import (
	"slices"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/vtime"
)

// Timing of exchanges and of the fuzzing test cycle. Real Z-Wave
// application responses arrive well under these windows; they bound how
// long the attacker waits, and they are what makes a fuzzing test cycle
// (response window, liveness ping, inter-test gap) cost ~0.7 s of
// simulated time, matching the paper's ~800 packets per ~600 s.
const (
	// DefaultResponseWindow is how long an exchange waits for responses.
	DefaultResponseWindow = 400 * time.Millisecond
	// DefaultPingWindow is how long a liveness ping waits for the MAC ack.
	DefaultPingWindow = 200 * time.Millisecond
	// InterTestGap is the idle time between fuzzing tests (radio
	// turnaround, logging).
	InterTestGap = 100 * time.Millisecond
	// PingRetry is the liveness re-probe interval while the target is
	// unresponsive.
	PingRetry = 5 * time.Second
)

// Dongle is the attacker's transceiver. Like a campaign's other actors it
// is confined to the single simulation goroutine, so its exchange state
// needs no locking.
type Dongle struct {
	clock *vtime.SimClock
	trx   *radio.Transceiver
	sent  int

	// observed collects kept captures while Observe listens; nil otherwise.
	observed *[]radio.Capture
	// live is set while SendAndObserve listens: the exchange's addresses
	// and the outcome built from each capture as it arrives.
	live            bool
	home            protocol.HomeID
	local, peer     protocol.NodeID
	ex              Exchange
	responsePayload []byte
}

// New attaches a dongle to the medium on the given region.
func New(m *radio.Medium, region radio.Region) *Dongle {
	d := &Dongle{clock: m.Clock()}
	d.trx = m.Attach("zcover-dongle", region)
	d.trx.SetReceiver(d.onCapture)
	return d
}

// onCapture keeps a copy of each capture inside Observe and classifies
// each one inside SendAndObserve; at any other time the dongle ignores
// the air.
func (d *Dongle) onCapture(c radio.Capture) {
	if d.observed != nil {
		*d.observed = append(*d.observed, c.Clone())
		return
	}
	if !d.live {
		return
	}
	f, err := c.Frame()
	if err != nil || f.Home != d.home || f.Src != d.peer || f.Dst != d.local {
		return
	}
	if f.IsAck() {
		d.ex.Acked = true
		return
	}
	// The frame is the medium's, valid only for this call: copy it into
	// storage the next exchange reuses.
	start := len(d.responsePayload)
	d.responsePayload = append(d.responsePayload, f.Payload...)
	resp := *f
	resp.Payload = slices.Clip(d.responsePayload[start:])
	d.ex.Responses = append(d.ex.Responses, resp)
}

// Clock exposes the simulated clock the dongle advances while waiting.
func (d *Dongle) Clock() *vtime.SimClock { return d.clock }

// PacketsSent reports the number of frames injected so far.
func (d *Dongle) PacketsSent() int { return d.sent }

// Observe listens for the given window and returns a copy of every frame
// captured in it, which the caller owns. This is the passive-scanning
// primitive.
func (d *Dongle) Observe(window time.Duration) []radio.Capture {
	var out []radio.Capture
	d.observed = &out
	d.clock.Advance(window)
	d.observed = nil
	return out
}

// SendRaw injects a raw frame (used by the VFuzz baseline, whose mutations
// target the MAC frame itself).
func (d *Dongle) SendRaw(raw []byte) error {
	d.sent++
	return d.trx.Transmit(raw)
}

// Send crafts and injects a well-formed frame with the given application
// payload, spoofing src.
func (d *Dongle) Send(home protocol.HomeID, src, dst protocol.NodeID, payload []byte) error {
	// Encode into a pooled buffer; delivery is synchronous, so the medium
	// is done with the bytes by the time SendRaw returns.
	buf := protocol.GetBuf()
	defer protocol.PutBuf(buf)
	raw, err := protocol.NewDataFrame(home, src, dst, payload).AppendEncode(*buf)
	if err != nil {
		return err
	}
	return d.SendRaw(raw)
}

// Exchange is the outcome of a send-and-observe cycle.
type Exchange struct {
	// Acked reports whether the destination MAC-acked the frame.
	Acked bool
	// Responses holds application frames the destination sent back to the
	// spoofed source during the window. They live in dongle storage that
	// the next SendAndObserve or Ping reuses: copy one to keep it longer.
	Responses []protocol.Frame
}

// SendAndObserve injects an application payload and watches the air for
// the response window, classifying each frame as it arrives.
func (d *Dongle) SendAndObserve(home protocol.HomeID, src, dst protocol.NodeID, payload []byte, window time.Duration) (Exchange, error) {
	if window <= 0 {
		window = DefaultResponseWindow
	}
	d.ex = Exchange{Responses: d.ex.Responses[:0]}
	d.responsePayload = d.responsePayload[:0]
	d.home, d.local, d.peer, d.live = home, src, dst, true
	defer func() { d.live = false }()
	if err := d.Send(home, src, dst, payload); err != nil {
		return Exchange{}, err
	}
	d.clock.Advance(window)
	return d.ex, nil
}

// Ping sends a NOP liveness probe and reports whether dst acked — the
// feedback mechanism of the paper's crash verification loop.
func (d *Dongle) Ping(home protocol.HomeID, src, dst protocol.NodeID) bool {
	ex, err := d.SendAndObserve(home, src, dst, []byte{0x00}, DefaultPingWindow)
	return err == nil && ex.Acked
}
