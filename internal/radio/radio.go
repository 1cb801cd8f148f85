// Package radio simulates the sub-GHz Z-Wave air interface. It substitutes
// for the paper's hardware: the Yardstick One transceiver dongle, the
// 868/908 MHz RF band, and the physical placement of devices 10–70 m from
// the attacker.
//
// The medium is a shared broadcast domain per region (frequency). A
// transmission is delivered to every other attached transceiver tuned to
// the same region after the frame's airtime has elapsed on the simulated
// clock; receivers filter by home ID themselves, exactly as real Z-Wave
// chipsets do, which is what makes passive sniffing possible. Loss and
// noise can be injected for robustness testing; both default to off so
// campaigns are deterministic.
//
// # Concurrency and buffer ownership
//
// Medium and Transceiver are safe for concurrent use; each campaign in a
// fleet runs its own Medium, so cross-goroutine traffic never mixes. Frame
// delivery is synchronous and zero-copy: the Capture handed to a receiver
// callback aliases the transmitter's buffer (or a pooled scratch copy on
// impaired paths) and is valid only for the duration of the callback.
// Receiver callbacks must not mutate Capture.Raw and must copy it before
// retaining it. The interceptor hook is the exception — it receives a
// private copy it may mutate or retain, as documented on InterceptFunc.
//
// Each Transceiver caches its fan-out (attached same-region in-range peers,
// in attach order). Attach, Place, SetRange and Detach bump the medium's
// generation, and the sender's next transmission rebuilds a stale cache.
package radio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// Process-wide air-interface metrics. Handles resolve once at init; the
// per-frame cost is a handful of lock-free atomic adds.
var (
	mTxFrames  = telemetry.Default().Counter("radio_tx_frames_total")
	mRxFrames  = telemetry.Default().Counter("radio_rx_frames_total")
	mLost      = telemetry.Default().Counter("radio_frames_lost_total")
	mCorrupted = telemetry.Default().Counter("radio_frames_corrupted_total")
	mTooLong   = telemetry.Default().Counter("radio_frames_too_long_total")
	mAirtime   = telemetry.Default().Histogram("radio_airtime_ms", 2, 3, 4, 5, 6, 7, 8)
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
	// and valid only for the duration of the receiver callback: on the
	// clean path it aliases the transmitter's buffer, and on impaired paths
	// it aliases a pooled scratch copy. Receivers must not mutate it, and
	// must copy it before retaining it past the callback (Sniffer and the
	// attacker dongle both do).
	Raw []byte
}

// Delivery is one frame instance an interceptor wants delivered to a
// receiver: the (possibly rewritten) bytes plus an extra delay beyond the
// frame's airtime. A zero delay delivers inline, exactly like the
// unintercepted path.
type Delivery struct {
	// Delay is added on top of the airtime before the frame arrives.
	Delay time.Duration
	// Raw is the frame as the receiver will see it. It may alias the
	// interceptor's input slice.
	Raw []byte
}

// InterceptFunc sees every frame en route from one transceiver to another
// (after the medium's own loss/noise impairments) and decides what the
// receiver observes: return nil to drop the frame, one Delivery to pass or
// rewrite it, or several to duplicate it. The input slice is a private
// copy; the interceptor may mutate or retain it. Interceptors run outside
// the medium lock and must be safe for concurrent use.
type InterceptFunc func(from, to string, raw []byte) []Delivery

// Medium is the shared simulated air. Construct with NewMedium. Medium is
// safe for concurrent use, though the simulation driver is single-threaded.
type Medium struct {
	clock *vtime.SimClock

	mu        sync.Mutex
	nodes     []*Transceiver
	lossP     float64
	noiseP    float64
	impSeed   int64
	streams   map[string]*rand.Rand
	intercept InterceptFunc
	txLog     int
	rangeLim  float64
	recorder  *telemetry.FlightRecorder
	gen       atomic.Uint64 // bumped when any fan-out cache goes stale
}

// NewMedium creates an empty air over the given simulated clock.
func NewMedium(clock *vtime.SimClock) *Medium {
	if clock == nil {
		panic("radio: NewMedium requires a clock")
	}
	return &Medium{clock: clock, impSeed: 1}
}

// Clock exposes the medium's simulated clock.
func (m *Medium) Clock() *vtime.SimClock { return m.clock }

// SetImpairments configures random frame loss and single-byte noise
// corruption probabilities (both in [0,1]) with a deterministic seed.
// Impairments default to zero. Each receiver draws from its own stream
// seeded from (seed, receiver name), so one transceiver's packet outcomes
// are independent of which other transceivers are attached and of target
// iteration order.
func (m *Medium) SetImpairments(lossP, noiseP float64, seed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lossP, m.noiseP = lossP, noiseP
	m.impSeed = seed
	m.streams = nil
}

// SetInterceptor installs a frame interceptor pipeline stage (nil removes
// it). The chaos fault injector composes onto the medium through this hook.
func (m *Medium) SetInterceptor(fn InterceptFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.intercept = fn
}

// stream returns the impairment RNG for the named receiver, creating it on
// first use. Callers hold m.mu.
func (m *Medium) stream(name string) *rand.Rand {
	s, ok := m.streams[name]
	if !ok {
		if m.streams == nil {
			m.streams = make(map[string]*rand.Rand)
		}
		s = rand.New(rand.NewSource(m.impSeed ^ int64(fnv64a(name))))
		m.streams[name] = s
	}
	return s
}

// fnv64a is the FNV-1a hash, used to derive per-receiver seeds.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
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

// TransmitCount reports how many frames have been put on the air in total.
func (m *Medium) TransmitCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.txLog
}

// Attach adds a transceiver tuned to the given region. The name appears in
// diagnostics only.
func (m *Medium) Attach(name string, region Region) *Transceiver {
	t := &Transceiver{medium: m, name: name, region: region}
	m.mu.Lock()
	defer m.mu.Unlock()
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

// transmit delivers raw to all other transceivers in region.
//
// Delivery is synchronous and zero-copy on the clean path: receivers get a
// Capture whose Raw aliases the transmitter's buffer (see Capture.Raw for
// the ownership contract). Impaired copies are drawn from the frame buffer
// pool and returned after the callback; only the interceptor path makes a
// plain copy, because InterceptFunc is documented as free to mutate and
// retain its input.
func (m *Medium) transmit(from *Transceiver, raw []byte) error {
	if len(raw) > protocol.MaxFrameSize {
		mTooLong.Inc()
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLong, len(raw))
	}
	m.mu.Lock()
	m.txLog++
	targets := m.peersOf(from)
	lossP, noiseP := m.lossP, m.noiseP
	// Each receiver's loss/noise outcomes come from its own seeded stream,
	// drawn in a fixed per-frame order (loss, noise, then corruption
	// position only when corrupting), so attaching or detaching other
	// transceivers never shifts an existing receiver's draw sequence.
	type impairPlan struct {
		lost     bool
		corrupt  bool
		noiseIdx int
		noiseBit byte
	}
	var plans []impairPlan
	if lossP > 0 || noiseP > 0 {
		plans = make([]impairPlan, len(targets))
		for i, t := range targets {
			s := m.stream(t.name)
			p := &plans[i]
			p.lost = lossP > 0 && s.Float64() < lossP
			noisy := noiseP > 0 && s.Float64() < noiseP
			if noisy && !p.lost && len(raw) > 0 {
				p.corrupt = true
				p.noiseIdx = s.Intn(len(raw))
				p.noiseBit = 1 << s.Intn(8)
			}
		}
	}
	intercept := m.intercept
	recorder := m.recorder
	m.mu.Unlock()

	airtime := Airtime(len(raw))
	mTxFrames.Inc()
	mAirtime.Observe(float64(airtime) / float64(time.Millisecond))

	at := m.clock.Now().Add(airtime)
	lost, corrupted := 0, 0
	for i, t := range targets {
		if plans != nil && plans[i].lost {
			lost++
			continue
		}
		corrupt := plans != nil && plans[i].corrupt
		if corrupt {
			corrupted++
		}
		if intercept == nil {
			frame := raw
			var pooled *[]byte
			if corrupt {
				// Corruption needs a private copy; borrow it from the
				// frame pool and return it once the synchronous delivery
				// is done.
				pooled = protocol.GetBuf()
				*pooled = append(*pooled, raw...)
				(*pooled)[plans[i].noiseIdx] ^= plans[i].noiseBit
				frame = *pooled
			}
			t.deliver(Capture{At: at, Raw: frame})
			if pooled != nil {
				protocol.PutBuf(pooled)
			}
			continue
		}
		// The interceptor may mutate or retain its input, so it gets a
		// plain (unpooled) copy; corruption is applied directly to it.
		icopy := make([]byte, len(raw))
		copy(icopy, raw)
		if corrupt {
			icopy[plans[i].noiseIdx] ^= plans[i].noiseBit
		}
		deliveries := intercept(from.name, t.name, icopy)
		if len(deliveries) == 0 {
			lost++
			continue
		}
		for _, d := range deliveries {
			if !bytes.Equal(d.Raw, icopy) {
				corrupted++
			}
			if d.Delay <= 0 {
				t.deliver(Capture{At: at, Raw: d.Raw})
				continue
			}
			t, d := t, d
			m.clock.Schedule(airtime+d.Delay, func() {
				t.deliver(Capture{At: at.Add(d.Delay), Raw: d.Raw})
			})
		}
	}
	mLost.Add(int64(lost))
	mCorrupted.Add(int64(corrupted))
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
// dongle, or a passive sniffer. It is safe for concurrent use: handler,
// counters and detach flag are atomics, so every method and frame delivery
// may race freely across goroutines (the fleet hammers that pattern);
// x/y/placed and the peers cache are guarded by the medium's lock.
type Transceiver struct {
	medium   *Medium
	name     string
	region   Region
	detached atomic.Bool
	x, y     float64
	placed   bool
	peers    []*Transceiver
	peersGen uint64

	handler atomic.Pointer[func(Capture)]
	txCount atomic.Int64
	rxCount atomic.Int64
}

// Name reports the diagnostic name given at Attach.
func (t *Transceiver) Name() string { return t.name }

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
	t.txCount.Add(1)
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

// Stats reports frames transmitted and received by this transceiver.
func (t *Transceiver) Stats() (tx, rx int) {
	return int(t.txCount.Load()), int(t.rxCount.Load())
}

// deliver hands a capture to the installed handler. A transceiver detached
// after target selection drops the frame instead of delivering late.
func (t *Transceiver) deliver(c Capture) {
	if t.detached.Load() {
		return
	}
	t.rxCount.Add(1)
	mRxFrames.Inc()
	if fn := t.handler.Load(); fn != nil && *fn != nil {
		(*fn)(c)
	}
}
