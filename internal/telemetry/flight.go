package telemetry

import (
	"sync"
	"time"
)

// SecurityClass labels the transport encapsulation of a recorded frame,
// recovered from the first application-payload byte (S0 = CMDCL 0x98,
// S2 = CMDCL 0x9F; everything else travels in clear text).
type SecurityClass string

// Security classes.
const (
	SecurityNone SecurityClass = "none"
	SecurityS0   SecurityClass = "s0"
	SecurityS2   SecurityClass = "s2"
)

// FrameRecord is one transmission captured by the flight recorder: the raw
// bytes as they went on the air plus the medium's delivery verdict.
type FrameRecord struct {
	// Seq is the recorder-assigned monotonic sequence number.
	Seq uint64
	// At is the simulated instant the frame finished arriving.
	At time.Time
	// From is the transmitting transceiver's diagnostic name.
	From string
	// Raw holds the frame bytes as transmitted. Inside the recorder's ring
	// it aliases recycled ring storage; records handed out by Snapshot
	// carry private copies.
	Raw []byte
	// Airtime is how long the frame occupied the medium.
	Airtime time.Duration
	// Security is the transport encapsulation class of the payload.
	Security SecurityClass
	// Targets is how many in-range transceivers the medium addressed.
	Targets int
	// Lost is how many of those dropped the frame (loss injection).
	Lost int
	// Corrupted is how many received a noise-corrupted copy.
	Corrupted int
}

// FlightRecorder is a bounded ring buffer of the last N frames seen on a
// radio medium. When the oracle confirms a finding, the recorder snapshot
// is attached to the finding's log entry, giving every vulnerability a
// replayable packet-level post-mortem.
//
// The recorder is opt-in per campaign and mutex-guarded: it sits off the
// default hot path, and a single campaign's simulation driver is
// effectively single-threaded, so the lock is uncontended.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []FrameRecord
	next int
	n    int
	seq  uint64
}

// DefaultFlightDepth is the ring size commands use when a depth is not
// given: enough context to see the exchange leading up to a finding
// without bloating every log entry.
const DefaultFlightDepth = 16

// NewFlightRecorder returns a recorder holding the last depth frames.
// Non-positive depth falls back to DefaultFlightDepth.
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &FlightRecorder{buf: make([]FrameRecord, depth)}
}

// Record appends one frame, evicting the oldest when full, and returns the
// assigned sequence number. The recorder copies rec.Raw into ring-owned
// storage (reusing the evicted slot's buffer), so callers may hand in
// transient or pooled buffers freely: once full, a recorder records frames
// without allocating.
func (r *FlightRecorder) Record(rec FrameRecord) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rec.Seq = r.seq
	raw := rec.Raw
	rec.Raw = append(r.buf[r.next].Raw[:0], raw...)
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	return rec.Seq
}

// Snapshot returns the held frames oldest-first. Raw slices are copied, so
// the snapshot stays valid as recording continues.
func (r *FlightRecorder) Snapshot() []FrameRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FrameRecord, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		rec := r.buf[(start+i)%len(r.buf)]
		rec.Raw = append([]byte(nil), rec.Raw...)
		out = append(out, rec)
	}
	return out
}
