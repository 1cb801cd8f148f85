// Package radio simulates the sub-GHz Z-Wave air interface. It substitutes
// for the paper's hardware: the Yardstick One transceiver dongle, the
// 868/908 MHz RF band, and the physical placement of devices 10–70 m from
// the attacker.
//
// The medium is a shared broadcast domain per region (frequency). A
// transmission is delivered to every other attached transceiver tuned to
// the same region after the frame's airtime has elapsed on the simulated
// clock; receivers filter by home ID themselves, exactly as real Z-Wave
// chipsets do, which is what makes passive sniffing possible. The medium
// itself never loses or corrupts a frame: faults come only from an
// interceptor (internal/chaos installs one), so clean campaigns are
// deterministic.
//
// A medium carries one campaign's frames and counts each of them once
// (Stats): transmissions, deliveries, interceptor losses and rewrites, and
// the receivers' decode outcomes (Capture.Frame). Nothing here writes
// process-wide state per frame; the testbed publishes the counts when the
// campaign ends.
//
// # Concurrency and buffer ownership
//
// Medium and Transceiver are safe for concurrent use; each campaign in a
// fleet runs its own Medium, so cross-goroutine traffic never mixes. Frame
// delivery is synchronous and zero-copy: the Capture handed to a receiver
// callback on a clean delivery aliases the transmitter's buffer and is
// valid only for the duration of the callback. Receiver callbacks must not
// mutate Capture.Raw and must copy it before retaining it. The interceptor
// hook gets the same read-only, call-scoped view (InterceptFunc) and
// answers with data, not bytes: it appends Deliveries (a delay and an
// optional bit flip) into storage the medium owns. The medium copies a
// frame only to apply a flip, into a pooled buffer, and for a delayed
// delivery, into the event record that carries it (the medium reuses its
// records), because the transmitter reuses its buffer once Transmit
// returns.
//
// Each transmission is decoded at most once: its receivers share one
// pooled decode (Capture.Frame), made when the first asks; a flipped or
// delayed copy gets its own. The frame is read-only and valid only for the
// callback, like Raw; Capture.Clone keeps a capture past it.
//
// Each Transceiver caches its fan-out (attached same-region in-range peers,
// in attach order). Attach, Place, SetRange and Detach bump the medium's
// generation, and the sender's next transmission rebuilds a stale cache.
package radio

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// Region selects the regional RF profile (ITU-T G.9959 regional annexes).
type Region int

// Supported regions. Enum starts at 1.
const (
	// RegionEU is the 868.42 MHz European profile.
	RegionEU Region = iota + 1
	// RegionUS is the 908.42 MHz North-American profile.
	RegionUS
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionEU:
		return "EU 868.42 MHz"
	case RegionUS:
		return "US 908.42 MHz"
	default:
		return "Region(" + strconv.Itoa(int(r)) + ")"
	}
}

// Air-interface timing constants for the R3 (100 kbit/s) data rate.
const (
	// bitsPerByte includes line coding overhead.
	bitsPerByte = 8
	// DataRateBitsPerSec is the R3 PHY rate.
	DataRateBitsPerSec = 100_000
	// PreambleBytes covers preamble and start-of-frame delimiter.
	PreambleBytes = 10
	// TurnaroundTime is the RX/TX switch time added to every transmission.
	TurnaroundTime = 1 * time.Millisecond
)

// Airtime computes how long a raw frame occupies the medium.
func Airtime(frameLen int) time.Duration {
	bits := (frameLen + PreambleBytes) * bitsPerByte
	return TurnaroundTime + time.Duration(bits)*time.Second/DataRateBitsPerSec
}

// Medium errors.
var (
	// ErrFrameTooLong rejects transmissions above the MAC limit.
	ErrFrameTooLong = errors.New("radio: frame exceeds MAC limit")
	// ErrDetached rejects use of a transceiver after Detach.
	ErrDetached = errors.New("radio: transceiver detached")
)

// Capture is one frame observed on the air, with its receive timestamp.
type Capture struct {
	// At is the simulated instant the frame finished arriving.
	At time.Time
	// Raw is the frame bytes as received. The slice is owned by the medium
	// and valid only for the duration of the receiver callback: it is the
	// transmitter's buffer, a pooled copy with an interceptor's bit flip
	// applied, or for a delayed delivery the copy its event record holds.
	// Receivers must not mutate it, and must Clone the capture before
	// retaining it past the callback (Sniffer and the attacker dongle both
	// do).
	Raw []byte

	m    *Medium    // counts Frame's outcomes
	slot *frameSlot // decode shared with the other receivers of Raw
}

// frameSlot is one delivery's receive decode, made by the first Frame
// call and shared by every later one until the delivery ends.
type frameSlot struct {
	done bool
	err  error
	f    protocol.Frame
}

// Frame is the chipset's receive decode: Raw parsed under the CS-8
// checksum, counted on the medium as one decoded or failed capture per
// call. Receivers of the same transmitted bytes share one decode, so the
// frame is read-only, and like Raw it is valid only for the callback.
func (c Capture) Frame() (*protocol.Frame, error) {
	s := c.slot
	if s == nil {
		s = new(frameSlot)
	}
	if !s.done {
		s.err, s.done = protocol.DecodeInto(&s.f, c.Raw, protocol.ChecksumCS8), true
	}
	if c.m != nil {
		c.m.countDecode(s.err)
	}
	if s.err != nil {
		return nil, s.err
	}
	return &s.f, nil
}

// Clone returns a copy of c that owns its bytes and may be kept past the
// callback; its Frame decodes the copy afresh on every call.
func (c Capture) Clone() Capture {
	return Capture{At: c.At, Raw: append([]byte(nil), c.Raw...), m: c.m}
}

// Delivery is one frame instance an interceptor wants delivered to a
// receiver, described as data: an extra delay beyond the frame's airtime
// and an optional single-byte XOR. The zero Delivery is the frame as
// transmitted, inline, exactly like the unintercepted path.
type Delivery struct {
	// Delay is added on top of the airtime before the frame arrives.
	Delay time.Duration
	// Offset is the byte Mask is XORed into. It must lie inside the
	// frame when Mask is non-zero; the medium panics otherwise.
	Offset int
	// Mask is XORed into the receiver's copy of byte Offset; zero means
	// the frame as transmitted. A delivery with a non-zero Mask counts as
	// corrupted (Stats.Corrupted).
	Mask byte
}

// InterceptFunc sees every frame en route from one transceiver to another
// and decides what the receiver observes: it appends to dst the
// deliveries the receiver gets and returns the extended slice, as
// AppendEncode does. Returning dst unextended drops the frame, one
// Delivery passes, delays or flips it, and several duplicate it. dst is
// the medium's storage for this call; the input frame is read-only and
// valid only for the call, like Capture.Raw. Interceptors run outside the
// medium lock and must be safe for concurrent use.
type InterceptFunc func(dst []Delivery, from, to *Transceiver, raw []byte) []Delivery

// Medium is the shared simulated air. Construct with NewMedium. Medium is
// safe for concurrent use, though the simulation driver is single-threaded.
type Medium struct {
	clock *vtime.SimClock

	mu        sync.Mutex
	nodes     []*Transceiver
	intercept InterceptFunc
	rangeLim  float64
	recorder  *telemetry.FlightRecorder
	gen       atomic.Uint64 // bumped when any fan-out cache goes stale
	idle      []*delayed    // delivered event records, reused by newDelayed

	tx, rx, lost, corrupted, tooLong  atomic.Int64
	decoded, decodeFail, checksumFail atomic.Int64
}

// Stats counts the frames one medium carried, each fact once. Only the
// campaign driving the medium writes the counts, so they stay off every
// other core's cache lines.
type Stats struct {
	// Tx is how many frames went on the air.
	Tx int64
	// Rx is how many deliveries reached an attached receiver.
	Rx int64
	// Lost is how many deliveries the interceptor dropped.
	Lost int64
	// Corrupted is how many delivered copies differ from the frame as
	// transmitted.
	Corrupted int64
	// TooLong is how many transmissions were refused above the MAC limit.
	TooLong int64
	// Decoded is how many captures a receiver's chipset decoded.
	Decoded int64
	// DecodeFail is how many captures failed to decode, checksum failures
	// included.
	DecodeFail int64
	// ChecksumFail is how many of the failed captures failed on their
	// checksum.
	ChecksumFail int64
}

// NewMedium creates an empty air over the given simulated clock.
func NewMedium(clock *vtime.SimClock) *Medium {
	if clock == nil {
		panic("radio: NewMedium requires a clock")
	}
	return &Medium{clock: clock}
}

// Clock exposes the medium's simulated clock.
func (m *Medium) Clock() *vtime.SimClock { return m.clock }

// Stats returns the medium's frame counts so far.
func (m *Medium) Stats() Stats {
	return Stats{
		Tx: m.tx.Load(), Rx: m.rx.Load(), Lost: m.lost.Load(),
		Corrupted: m.corrupted.Load(), TooLong: m.tooLong.Load(),
		Decoded: m.decoded.Load(), DecodeFail: m.decodeFail.Load(),
		ChecksumFail: m.checksumFail.Load(),
	}
}

// SetInterceptFunc installs a frame interceptor (nil removes it). The
// chaos fault injector composes onto the medium through this hook.
func (m *Medium) SetInterceptFunc(fn InterceptFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.intercept = fn
}

// SetInterceptor installs an interceptor that sees endpoint names and
// answers with a slice of its own, which the medium appends to its
// storage before delivering anything; nil removes the interceptor. It
// suits a wrapper that only knows names (the campaign benchmark times
// chaos.Injector.Intercept through it) and costs whatever fn allocates;
// SetInterceptFunc is the allocation-free form.
func (m *Medium) SetInterceptor(fn func(from, to string, raw []byte) []Delivery) {
	if fn == nil {
		m.SetInterceptFunc(nil)
		return
	}
	m.SetInterceptFunc(func(dst []Delivery, from, to *Transceiver, raw []byte) []Delivery {
		return append(dst, fn(from.name, to.name, raw)...)
	})
}

// SetRange enables the geometric propagation model: transmissions reach
// only transceivers within r metres of the sender. Transceivers without an
// assigned position are treated as always in range (back-compatible
// default for sniffers and tests). Zero disables the model.
func (m *Medium) SetRange(r float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rangeLim = r
	m.gen.Add(1)
}

// SetFlightRecorder attaches a packet flight recorder: every transmission
// is recorded with its raw bytes, airtime, security class, and delivery
// verdict. Nil detaches. The recorder is the post-mortem channel findings
// dump alongside their log entries.
func (m *Medium) SetFlightRecorder(rec *telemetry.FlightRecorder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recorder = rec
}

// Attach adds a transceiver tuned to the given region. The name appears in
// diagnostics and in interceptors' per-link keys; the transceiver's ID is
// its attach order on this medium.
func (m *Medium) Attach(name string, region Region) *Transceiver {
	t := &Transceiver{medium: m, name: name, region: region}
	m.mu.Lock()
	defer m.mu.Unlock()
	t.id = len(m.nodes)
	m.nodes = append(m.nodes, t)
	m.gen.Add(1)
	return t
}

// peersOf returns from's fan-out cache, rebuilt if stale. The slice is
// never written again, so it outlives m.mu. Callers hold m.mu.
func (m *Medium) peersOf(from *Transceiver) []*Transceiver {
	gen := m.gen.Load()
	if from.peersGen == gen {
		return from.peers
	}
	peers := make([]*Transceiver, 0, len(m.nodes))
	for _, t := range m.nodes {
		if t != from && t.region == from.region && !t.detached.Load() && m.inRange(from, t) {
			peers = append(peers, t)
		}
	}
	from.peers, from.peersGen = peers, gen
	return peers
}

// txState is one transmit call's working storage: the decode the
// transmission's receivers share, the decode of an inline flipped copy,
// and the interceptor's answers for the current receiver. It is pooled
// and per call, not on Medium, because a receiver may transmit from its
// callback, even back through the transmitting transceiver.
type txState struct {
	shared, flipped frameSlot
	out             []Delivery
}

var txPool = sync.Pool{New: func() any { return new(txState) }}

// delayed is one scheduled delivery: the receiver, the arrival instant,
// and the record's own copy of the frame with any flip applied. A medium
// reuses its records, each with fire bound once, so a delayed delivery
// allocates nothing once the medium has as many records as it ever has
// in flight.
type delayed struct {
	t    *Transceiver
	at   time.Time
	buf  []byte
	slot frameSlot
	fire func()
}

// newDelayed returns an idle event record, or a new one.
func (m *Medium) newDelayed() *delayed {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.idle); n > 0 {
		d := m.idle[n-1]
		m.idle = m.idle[:n-1]
		return d
	}
	d := &delayed{buf: make([]byte, 0, protocol.MaxFrameSize)}
	d.fire = d.deliver
	return d
}

// deliver hands the record's frame to its receiver, then returns the
// record to its medium's idle list.
func (d *delayed) deliver() {
	d.t.deliver(Capture{At: d.at, Raw: d.buf, slot: &d.slot})
	m := d.t.medium
	d.t, d.buf, d.slot = nil, d.buf[:0], frameSlot{}
	m.mu.Lock()
	m.idle = append(m.idle, d)
	m.mu.Unlock()
}

// transmit delivers raw to all other transceivers in region.
//
// Delivery is synchronous and zero-copy: receivers and the interceptor
// see the transmitter's buffer (see Capture.Raw for the ownership
// contract). A flipped delivery is a pooled copy, and a delayed one the
// copy in its event record, since it outlives Transmit.
func (m *Medium) transmit(from *Transceiver, raw []byte) error {
	if len(raw) > protocol.MaxFrameSize {
		m.tooLong.Add(1)
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLong, len(raw))
	}
	m.mu.Lock()
	targets := m.peersOf(from)
	intercept := m.intercept
	recorder := m.recorder
	m.mu.Unlock()
	m.tx.Add(1)

	airtime := Airtime(len(raw))
	at := m.clock.Now().Add(airtime)
	lost, corrupted := 0, 0
	st := txPool.Get().(*txState)
	for _, t := range targets {
		if intercept == nil {
			t.deliver(Capture{At: at, Raw: raw, slot: &st.shared})
			continue
		}
		st.out = intercept(st.out[:0], from, t, raw)
		if len(st.out) == 0 {
			lost++
			continue
		}
		for _, d := range st.out {
			if d.Mask != 0 {
				if d.Offset < 0 || d.Offset >= len(raw) {
					panic(fmt.Sprintf("radio: interceptor on %s->%s flips byte %d of a %d-byte frame",
						from.name, t.name, d.Offset, len(raw)))
				}
				corrupted++
			}
			switch {
			case d.Delay > 0:
				e := m.newDelayed()
				e.t, e.at, e.buf = t, at.Add(d.Delay), append(e.buf, raw...)
				if d.Mask != 0 {
					e.buf[d.Offset] ^= d.Mask
				}
				m.clock.Schedule(airtime+d.Delay, e.fire)
			case d.Mask == 0:
				t.deliver(Capture{At: at, Raw: raw, slot: &st.shared})
			default:
				buf := protocol.GetBuf()
				*buf = append(*buf, raw...)
				(*buf)[d.Offset] ^= d.Mask
				t.deliver(Capture{At: at, Raw: *buf, slot: &st.flipped})
				st.flipped = frameSlot{}
				protocol.PutBuf(buf)
			}
		}
	}
	st.shared, st.out = frameSlot{}, st.out[:0]
	txPool.Put(st)
	if intercept != nil {
		m.lost.Add(int64(lost))
		m.corrupted.Add(int64(corrupted))
	}
	if recorder != nil {
		// Record copies raw into ring-owned storage, so no pre-copy here.
		recorder.Record(telemetry.FrameRecord{
			At:        at,
			From:      from.name,
			Raw:       raw,
			Airtime:   airtime,
			Security:  securityClassOf(raw),
			Targets:   len(targets),
			Lost:      lost,
			Corrupted: corrupted,
		})
	}
	m.clock.Schedule(airtime, func() {})
	return nil
}

// countDecode counts one receive decode's outcome.
func (m *Medium) countDecode(err error) {
	switch {
	case err == nil:
		m.decoded.Add(1)
		return
	case errors.Is(err, protocol.ErrBadChecksum):
		m.checksumFail.Add(1)
	}
	m.decodeFail.Add(1)
}

// securityClassOf classifies a raw frame's transport encapsulation by its
// first application-payload byte (S0 = CMDCL 0x98, S2 = CMDCL 0x9F).
func securityClassOf(raw []byte) telemetry.SecurityClass {
	if len(raw) <= protocol.HeaderSize {
		return telemetry.SecurityNone
	}
	switch raw[protocol.HeaderSize] {
	case 0x98:
		return telemetry.SecurityS0
	case 0x9F:
		return telemetry.SecurityS2
	default:
		return telemetry.SecurityNone
	}
}

// inRange applies the propagation model (callers hold m.mu).
func (m *Medium) inRange(a, b *Transceiver) bool {
	if m.rangeLim <= 0 || !a.placed || !b.placed {
		return true
	}
	dx, dy := a.x-b.x, a.y-b.y
	return dx*dx+dy*dy <= m.rangeLim*m.rangeLim
}

// Transceiver is one radio endpoint: a device chipset, the attacker's
// dongle, or a passive sniffer. It is safe for concurrent use: handler and
// detach flag are atomics, so every method and frame delivery may race
// freely across goroutines (the fleet hammers that pattern); x/y/placed
// and the peers cache are guarded by the medium's lock.
type Transceiver struct {
	medium   *Medium
	id       int
	name     string
	region   Region
	detached atomic.Bool
	x, y     float64
	placed   bool
	peers    []*Transceiver
	peersGen uint64

	handler atomic.Pointer[func(Capture)]
}

// Name reports the diagnostic name given at Attach.
func (t *Transceiver) Name() string { return t.name }

// ID reports the transceiver's attach order on its medium: 0 for the
// first attached, then 1, 2, ... with no gaps. A detached transceiver
// keeps its ID and no later one reuses it, so an interceptor may index
// per-link state by it.
func (t *Transceiver) ID() int { return t.id }

// Region reports the RF region the transceiver is tuned to.
func (t *Transceiver) Region() Region { return t.region }

// SetReceiver installs the frame-delivery callback. Passing nil silences
// the transceiver (frames still count as received).
func (t *Transceiver) SetReceiver(fn func(Capture)) { t.handler.Store(&fn) }

// Transmit puts a raw frame on the air.
func (t *Transceiver) Transmit(raw []byte) error {
	if t.detached.Load() {
		return ErrDetached
	}
	return t.medium.transmit(t, raw)
}

// Detach removes the transceiver from the air; it no longer receives and
// can no longer transmit. Safe to call from any goroutine, concurrently
// with in-flight transmissions.
func (t *Transceiver) Detach() {
	t.detached.Store(true)
	t.medium.gen.Add(1)
}

// Place assigns the transceiver a position (metres) for the geometric
// propagation model. Unplaced transceivers are always in range.
func (t *Transceiver) Place(x, y float64) {
	t.medium.mu.Lock()
	defer t.medium.mu.Unlock()
	t.x, t.y, t.placed = x, y, true
	t.medium.gen.Add(1)
}

// deliver hands a capture to the installed handler. A transceiver detached
// after target selection drops the frame instead of delivering late.
func (t *Transceiver) deliver(c Capture) {
	if t.detached.Load() {
		return
	}
	t.medium.rx.Add(1)
	fn := t.handler.Load()
	if fn == nil || *fn == nil {
		return
	}
	c.m = t.medium
	(*fn)(c)
}
