// Package device provides the emulated Z-Wave node framework: the shared
// MAC/application plumbing every testbed node is built on, the slave
// devices of Table II (the Schlage S2 door lock D8 and the GE legacy binary
// switch D9), and the S2/S0 pairing flows that bind slaves to a controller.
package device

import (
	"fmt"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// mRetransmissions counts MAC retransmissions across all nodes; it stays
// zero unless a retry policy is installed (chaos campaigns).
var mRetransmissions = telemetry.Default().Counter("device_retransmissions_total")

// RetryPolicy configures ACK-timeout retransmission with capped
// exponential backoff: attempt k (k >= 2) is sent Backoff*2^(k-2) after
// the previous one, capped at MaxBackoff. The policy exists for impaired
// channels; with no policy installed (the default) a node transmits each
// frame exactly once, which keeps clean campaigns byte-identical.
type RetryPolicy struct {
	// MaxAttempts bounds total transmissions of one frame (first send
	// included). Values below 2 disable retransmission.
	MaxAttempts int
	// Backoff is the delay before the first retransmission.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
}

// awaitKey identifies one in-flight acknowledgement wait.
type awaitKey struct {
	dst protocol.NodeID
	seq byte
}

// Config describes one node's attachment to the simulated testbed.
type Config struct {
	// Medium is the shared air.
	Medium *radio.Medium
	// Region selects the RF profile.
	Region radio.Region
	// Home is the network home ID.
	Home protocol.HomeID
	// ID is the node ID within the network.
	ID protocol.NodeID
	// Name is a diagnostic label (e.g. "D8-doorlock").
	Name string
}

// Node is the shared plumbing of an emulated Z-Wave node: a transceiver,
// home-ID filtering, MAC acknowledgements, and application dispatch. The
// concrete device (slave, controller) installs Handler and optional hooks.
type Node struct {
	cfg   Config
	clock *vtime.SimClock
	trx   *radio.Transceiver
	seq   byte
	learn bool

	// Handler receives every application frame addressed to this node
	// (or broadcast) after MAC validation. The frame is the medium's shared
	// read-only decode and its payload aliases the capture buffer: both are
	// valid only for the duration of the call, so keeping either needs a copy.
	Handler func(f *protocol.Frame)
	// RawHook, if set, sees every capture before decoding; returning true
	// consumes the frame. Controller models use it for the legacy MAC
	// parsing bugs that VFuzz exercises.
	RawHook func(raw []byte) bool
	// Gate, if set and returning false, silently drops incoming frames
	// (no MAC ack, no dispatch) — how a hung controller looks on the air.
	Gate func() bool
	// OnAck, if set, is invoked when a MAC ack addressed to this node
	// arrives (used by senders awaiting transfer confirmation).
	OnAck func(f *protocol.Frame)
	// Repeater marks a mains-powered routing node that forwards routed
	// frames on behalf of the mesh.
	Repeater bool

	retry   *RetryPolicy
	pending map[awaitKey]bool // false = awaiting ack, true = acked
	idle    []*retryChain     // finished chains, reused by the next Send
}

// retryChain is one frame's pending retransmissions. A node reuses its
// chains, each with fire bound once, so retrying allocates nothing.
type retryChain struct {
	n       *Node
	key     awaitKey
	raw     []byte
	attempt int
	delay   time.Duration
	fire    func()
}

// SetRetry installs (or, with nil, removes) the node's retransmission
// policy. Like the rest of Node, this is driven from the single simulation
// goroutine.
func (n *Node) SetRetry(rp *RetryPolicy) { n.retry = rp }

// NewNode attaches a node to the medium.
func NewNode(cfg Config) *Node {
	if cfg.Medium == nil {
		panic("device: Config.Medium is required")
	}
	n := &Node{cfg: cfg, clock: cfg.Medium.Clock()}
	n.trx = cfg.Medium.Attach(cfg.Name, cfg.Region)
	n.trx.SetReceiver(n.onCapture)
	return n
}

// Home reports the node's network home ID.
func (n *Node) Home() protocol.HomeID { return n.cfg.Home }

// SetLearnMode switches home-ID filtering off (on) so an unincluded device
// can hear the including controller's frames. Real devices enter learn
// mode when the user presses the inclusion button.
func (n *Node) SetLearnMode(on bool) { n.learn = on }

// LearnMode reports whether learn mode is active.
func (n *Node) LearnMode() bool { return n.learn }

// Adopt rebinds the node to a network: the final step of inclusion, when
// the controller assigns the device its home ID and node ID.
func (n *Node) Adopt(home protocol.HomeID, id protocol.NodeID) {
	n.cfg.Home = home
	n.cfg.ID = id
	n.learn = false
}

// ID reports the node's node ID.
func (n *Node) ID() protocol.NodeID { return n.cfg.ID }

// Name reports the diagnostic label.
func (n *Node) Name() string { return n.cfg.Name }

// Clock exposes the simulated clock.
func (n *Node) Clock() *vtime.SimClock { return n.clock }

// Detach removes the node from the air.
func (n *Node) Detach() { n.trx.Detach() }

// Place assigns the node's radio a position for the geometric propagation
// model (see radio.Medium.SetRange).
func (n *Node) Place(x, y float64) { n.trx.Place(x, y) }

// SendMulticast transmits one application payload to several nodes at
// once via the multicast bitmask.
func (n *Node) SendMulticast(addressees []protocol.NodeID, apl []byte) error {
	f, err := protocol.NewMulticastFrame(n.cfg.Home, n.cfg.ID, addressees, apl)
	if err != nil {
		return err
	}
	n.seq = (n.seq + 1) & 0x0F
	f.Control.Sequence = n.seq
	return n.transmitFrame(f)
}

// SendRouted transmits an application payload to dst through the given
// source route — the mesh path used when dst is out of direct range.
func (n *Node) SendRouted(dst protocol.NodeID, repeaters []protocol.NodeID, apl []byte) error {
	f, err := protocol.NewRoutedFrame(n.cfg.Home, n.cfg.ID, dst, repeaters, apl)
	if err != nil {
		return err
	}
	n.seq = (n.seq + 1) & 0x0F
	f.Control.Sequence = n.seq
	return n.transmitFrame(f)
}

// transmitFrame encodes f into a pooled buffer, transmits it, and returns
// the buffer to the pool. Delivery on the simulated medium is synchronous,
// so the medium and every receiver are done with the bytes by the time
// Transmit returns; only paths that retain the encoding for retransmission
// (sendReliable) must encode into a private buffer instead.
func (n *Node) transmitFrame(f *protocol.Frame) error {
	buf := protocol.GetBuf()
	defer protocol.PutBuf(buf)
	raw, err := f.AppendEncode(*buf)
	if err != nil {
		return fmt.Errorf("device %s: %w", n.cfg.Name, err)
	}
	return n.trx.Transmit(raw)
}

// Send transmits an application payload to dst with the ack-request bit
// set, as ordinary Z-Wave traffic does. With a retry policy installed,
// unacknowledged unicast frames are retransmitted with capped exponential
// backoff.
func (n *Node) Send(dst protocol.NodeID, payload []byte) error {
	f := protocol.NewDataFrame(n.cfg.Home, n.cfg.ID, dst, payload)
	n.seq = (n.seq + 1) & 0x0F
	f.Control.Sequence = n.seq
	if n.retry == nil || n.retry.MaxAttempts < 2 || dst == protocol.NodeBroadcast {
		return n.transmitFrame(f)
	}
	// The retry chain retains its encoding across scheduled
	// retransmissions, so it encodes into the chain's own buffer. Frame
	// delivery on the simulated medium is synchronous, so by the time
	// Transmit returns the MAC ack — if it survived the channel — has
	// already arrived and marked the wait; the healthy path therefore
	// schedules nothing.
	var c *retryChain
	if k := len(n.idle); k > 0 {
		c, n.idle = n.idle[k-1], n.idle[:k-1]
	} else {
		c = &retryChain{n: n}
		c.fire = c.retransmit
	}
	raw, err := f.AppendEncode(c.raw[:0])
	if err != nil {
		return fmt.Errorf("device %s: %w", n.cfg.Name, err)
	}
	c.key, c.raw, c.attempt, c.delay = awaitKey{dst: dst, seq: n.seq}, raw, 2, n.retry.Backoff
	if n.pending == nil {
		n.pending = make(map[awaitKey]bool)
	}
	n.pending[c.key] = false
	if err := n.trx.Transmit(raw); err != nil {
		delete(n.pending, c.key)
		return err
	}
	n.armRetry(c)
	return nil
}

// armRetry schedules transmission attempt number c.attempt after c.delay,
// unless the frame has been acked or attempts are exhausted (either way
// the wait is forgotten and the chain goes idle).
func (n *Node) armRetry(c *retryChain) {
	if n.pending[c.key] || c.attempt > n.retry.MaxAttempts {
		delete(n.pending, c.key)
		n.idle = append(n.idle, c)
		return
	}
	n.clock.Schedule(c.delay, c.fire)
}

// retransmit is the chain's timer: unless the ack arrived meanwhile, send
// the frame again with the backoff doubled; then arm the next attempt.
func (c *retryChain) retransmit() {
	n := c.n
	if !n.pending[c.key] {
		mRetransmissions.Inc()
		_ = n.trx.Transmit(c.raw)
		c.attempt, c.delay = c.attempt+1, c.delay*2
		if n.retry.MaxBackoff > 0 && c.delay > n.retry.MaxBackoff {
			c.delay = n.retry.MaxBackoff
		}
	}
	n.armRetry(c)
}

// SendAck transmits a MAC transfer acknowledgement.
func (n *Node) SendAck(dst protocol.NodeID, seq byte) error {
	return n.transmitFrame(protocol.NewAckFrame(n.cfg.Home, n.cfg.ID, dst, seq))
}

// onCapture is the MAC receive path. The decoded frame is the medium's,
// shared with the other receivers of the same bytes, so Handler/OnAck must
// neither change nor retain the *Frame or its payload past the call.
// Nested deliveries — a handler that transmits, triggering a synchronous
// inbound ack — decode in that transmission's own slot, so reentry is safe.
func (n *Node) onCapture(c radio.Capture) {
	if n.RawHook != nil && n.RawHook(c.Raw) {
		return
	}
	f, err := c.Frame()
	if err != nil {
		// Malformed frames are dropped by the chipset, as on real silicon.
		return
	}
	if f.Home != n.cfg.Home && !n.learn {
		return
	}
	if n.Gate != nil && !n.Gate() {
		return
	}
	// Routed frames are examined before destination filtering: a repeater
	// forwards frames addressed to other nodes.
	if f.Control.Header == protocol.HeaderRouted {
		n.handleRouted(f)
		return
	}
	// Multicast frames address nodes through the payload bitmask.
	if f.Control.Header == protocol.HeaderMulticast {
		ids, apl, err := protocol.ParseMulticastPayload(f.Payload)
		if err != nil {
			return
		}
		for _, id := range ids {
			if id == n.cfg.ID {
				if n.Handler != nil {
					inner := *f
					inner.Payload = apl
					n.Handler(&inner)
				}
				return
			}
		}
		return
	}
	if f.Dst != n.cfg.ID && f.Dst != protocol.NodeBroadcast {
		return
	}
	if f.IsAck() {
		if n.pending != nil {
			key := awaitKey{dst: f.Src, seq: f.Control.Sequence}
			if _, ok := n.pending[key]; ok {
				n.pending[key] = true
			}
		}
		if n.OnAck != nil {
			n.OnAck(f)
		}
		return
	}
	if f.Control.AckRequested && f.Dst == n.cfg.ID {
		// Best-effort MAC ack; a full air would retry, the simulation
		// does not need to.
		_ = n.SendAck(f.Src, f.Control.Sequence)
	}
	if n.Handler != nil {
		n.Handler(f)
	}
}

// handleRouted processes a routed frame: final-leg delivery when we are
// the destination, retransmission when it is our repeater turn.
func (n *Node) handleRouted(f *protocol.Frame) {
	rh, apl, err := protocol.ParseRoutedPayload(f.Payload)
	if err != nil {
		return // malformed routing header: dropped (or consumed by RawHook bugs)
	}
	if f.Dst == n.cfg.ID && rh.Hop >= len(rh.Repeaters) {
		if n.Handler != nil {
			inner := *f
			inner.Payload = apl
			n.Handler(&inner)
		}
		return
	}
	if n.Repeater && rh.Hop < len(rh.Repeaters) && rh.Repeaters[rh.Hop] == n.cfg.ID {
		rh.Hop++
		payload, err := protocol.EncodeRoutedPayload(rh, apl)
		if err != nil {
			return
		}
		fwd := *f
		fwd.Payload = payload
		_ = n.transmitFrame(&fwd)
	}
}
