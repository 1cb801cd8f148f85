// Package dongle provides ZCover's attacker-side radio access: the
// software equivalent of the Yardstick One transceiver the paper drives
// from the fuzzing laptop. It can sniff promiscuously, inject raw or
// crafted frames, and run send-and-observe exchanges with simulated
// timing — and nothing else: ZCover never touches a device except through
// this interface, preserving the paper's black-box, external-entity design
// assumption (§III-A).
package dongle

import (
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
// is confined to the single simulation goroutine, so its capture buffer
// and scrap list need no locking.
type Dongle struct {
	clock *vtime.SimClock
	trx   *radio.Transceiver

	buffer []radio.Capture
	scrap  [][]byte // recycled capture-copy buffers for internal exchanges
	sent   int
}

// New attaches a dongle to the medium on the given region.
func New(m *radio.Medium, region radio.Region) *Dongle {
	d := &Dongle{clock: m.Clock()}
	d.trx = m.Attach("zcover-dongle", region)
	d.trx.SetReceiver(func(c radio.Capture) {
		// Capture.Raw is valid only during the callback, so buffering it
		// requires a copy; internal exchanges recycle these copies through
		// d.scrap, making the steady-state fuzzing cycle allocation-free.
		var buf []byte
		if n := len(d.scrap); n > 0 {
			buf, d.scrap = d.scrap[n-1][:0], d.scrap[:n-1]
		}
		c.Raw = append(buf, c.Raw...)
		d.buffer = append(d.buffer, c)
	})
	return d
}

// Clock exposes the simulated clock the dongle advances while waiting.
func (d *Dongle) Clock() *vtime.SimClock { return d.clock }

// PacketsSent reports the number of frames injected so far.
func (d *Dongle) PacketsSent() int { return d.sent }

// Drain returns and clears the capture buffer. Ownership of the returned
// captures (including their Raw bytes) transfers to the caller; the dongle
// starts a fresh buffer rather than recycling theirs.
func (d *Dongle) Drain() []radio.Capture {
	out := d.buffer
	d.buffer = nil
	return out
}

// recycleBuffered discards buffered captures, returning their byte copies
// to the scrap list for the receiver to reuse. Internal exchange paths use
// this instead of Drain so the hot fuzzing loop does not allocate.
func (d *Dongle) recycleBuffered() {
	for i := range d.buffer {
		d.scrap = append(d.scrap, d.buffer[i].Raw)
		d.buffer[i] = radio.Capture{}
	}
	d.buffer = d.buffer[:0]
}

// Observe listens for the given window and returns everything captured.
// This is the passive-scanning primitive.
func (d *Dongle) Observe(window time.Duration) []radio.Capture {
	d.clock.Advance(window)
	return d.Drain()
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
	// spoofed source during the window.
	Responses []*protocol.Frame
}

// SendAndObserve injects an application payload and watches the air for
// the response window, classifying what came back.
func (d *Dongle) SendAndObserve(home protocol.HomeID, src, dst protocol.NodeID, payload []byte, window time.Duration) (Exchange, error) {
	if window <= 0 {
		window = DefaultResponseWindow
	}
	d.recycleBuffered()
	if err := d.Send(home, src, dst, payload); err != nil {
		return Exchange{}, err
	}
	d.clock.Advance(window)
	return d.classify(home, src, dst), nil
}

// classify inspects the buffered captures for acks and responses from dst
// back to the spoofed src, then recycles the capture copies. Responses are
// handed out with private payload copies, so recycling is invisible to
// callers.
func (d *Dongle) classify(home protocol.HomeID, src, dst protocol.NodeID) Exchange {
	var ex Exchange
	f := protocol.GetFrame()
	defer protocol.PutFrame(f)
	for i := range d.buffer {
		err := protocol.DecodeInto(f, d.buffer[i].Raw, protocol.ChecksumCS8)
		if err != nil || f.Home != home || f.Src != dst || f.Dst != src {
			continue
		}
		if f.IsAck() {
			ex.Acked = true
			continue
		}
		resp := *f
		resp.Payload = append([]byte{}, f.Payload...)
		ex.Responses = append(ex.Responses, &resp)
	}
	d.recycleBuffered()
	return ex
}

// Ping sends a NOP liveness probe and reports whether dst acked — the
// feedback mechanism of the paper's crash verification loop.
func (d *Dongle) Ping(home protocol.HomeID, src, dst protocol.NodeID) bool {
	ex, err := d.SendAndObserve(home, src, dst, []byte{0x00}, DefaultPingWindow)
	return err == nil && ex.Acked
}
