// Package chaos is the deterministic fault-injection layer: a seeded,
// sim-clock-driven injector that composes onto radio.Medium as a frame
// interceptor and impairs the air the way the paper's physical testbed
// was impaired by real RF — burst loss (a Gilbert–Elliott two-state
// channel), single-bit corruption (exercising the CS-8/CRC-16 rejection
// paths), frame duplication, bounded reordering via latency jitter, and
// scheduled node partitions ("partition D8 from t=2h for 10m").
//
// Every fault stream is seeded per directed link (sender, receiver), so
// outcomes are byte-reproducible for a fixed seed regardless of worker
// count or of which unrelated transceivers share the medium, preserving
// the repository's tier-1 determinism gate.
//
// # Concurrency and storage
//
// An Injector is safe for concurrent use (one mutex guards the per-link
// RNG streams and fault counters), but like the medium it attaches to it
// is normally driven by the single goroutine running one campaign's
// simulation; parallel fleet campaigns each build their own injector.
// The interceptor reads the transmitter's buffer and never writes it (per
// the radio package's ownership contract): it appends its answer, with a
// corruption as a byte offset and XOR mask, into the medium's storage,
// and the medium applies the flip to its own copy. Link streams are found
// by the transceivers' attach-order IDs, so a delivery neither allocates
// nor hashes. Stats returns a snapshot by value.
package chaos

import (
	"strings"
	"sync"
	"time"

	"math/rand"

	"zcover/internal/radio"
	"zcover/internal/vtime"
)

// Stats counts fault decisions made by one injector. The testbed adds
// them to the process-wide chaos_*_total counters when its campaign ends.
type Stats struct {
	// Deliveries is how many frame deliveries the injector inspected.
	Deliveries int64
	// Dropped counts Gilbert–Elliott channel losses.
	Dropped int64
	// Corrupted counts single-bit flips applied.
	Corrupted int64
	// Duplicated counts extra frame copies injected.
	Duplicated int64
	// Delayed counts frames given latency jitter.
	Delayed int64
	// Partitioned counts frames swallowed by an active partition.
	Partitioned int64
}

// Faults sums the fault decisions (deliveries inspected excluded).
func (s Stats) Faults() int64 {
	return s.Dropped + s.Corrupted + s.Duplicated + s.Delayed + s.Partitioned
}

// linkKey identifies one directed link on the medium.
type linkKey struct{ from, to string }

// linkState is the per-link fault stream: an independent RNG, the
// Gilbert–Elliott channel state, and the partitions that cover the link.
type linkState struct {
	rng        *rand.Rand
	bad        bool
	partitions []Partition
}

// Injector applies a Profile to every frame crossing the medium. Create
// with New, wire with Attach. Safe for concurrent use: the interceptor is
// called from whichever goroutine is driving the simulation.
type Injector struct {
	profile Profile
	seed    int64

	mu        sync.Mutex
	clock     *vtime.SimClock
	epoch     time.Time
	links     map[linkKey]*linkState
	byID      [][]*linkState // [from.ID()][to.ID()], filled from links on first use
	lastFault time.Time
	haveFault bool
	stats     Stats
}

// New creates an injector for the given profile and seed. The same
// (profile, seed) pair always produces the same fault sequence on the
// same traffic.
func New(profile Profile, seed int64) *Injector {
	return &Injector{
		profile: profile,
		seed:    seed,
		links:   make(map[linkKey]*linkState),
	}
}

// Profile reports the profile the injector was built with.
func (i *Injector) Profile() Profile { return i.profile }

// Attach installs the injector on the medium as its frame interceptor.
// Partition schedules are anchored at the medium's current simulated time.
// An injector serves the medium it was last attached to: transceiver IDs
// are per medium, so Attach forgets the ID table (the streams, keyed by
// name, carry on).
func (i *Injector) Attach(m *radio.Medium) {
	i.mu.Lock()
	i.clock = m.Clock()
	i.epoch = i.clock.Now()
	i.byID = nil
	i.mu.Unlock()
	m.SetInterceptFunc(i.AppendIntercept)
}

// Stats returns a snapshot of the injector's fault counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// ImpairedSince reports whether the injector has applied any fault at or
// after the given simulated instant. The fuzz oracle uses it to downgrade
// findings whose "silence" window overlaps injected faults from confirmed
// to suspect.
func (i *Injector) ImpairedSince(t time.Time) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.haveFault && !i.lastFault.Before(t)
}

// link returns the fault stream for a directed link, creating it on first
// use with a seed mixed from the injector seed and both endpoint names,
// and with the partitions whose node either name contains. Callers hold
// i.mu.
func (i *Injector) link(from, to string) *linkState {
	k := linkKey{from, to}
	st, ok := i.links[k]
	if !ok {
		mixed := i.seed ^ int64(fnv64a(from)) ^ int64(fnv64a(to)*0x9E3779B97F4A7C15)
		st = &linkState{rng: rand.New(rand.NewSource(mixed))}
		for _, p := range i.profile.Partitions {
			if p.For > 0 && p.Node != "" && (strings.Contains(from, p.Node) || strings.Contains(to, p.Node)) {
				st.partitions = append(st.partitions, p)
			}
		}
		i.links[k] = st
	}
	return st
}

// linkOf returns the fault stream for from->to by the transceivers' IDs.
// A pair seen for the first time is resolved by name, so transceivers
// that share a name share a stream. Callers hold i.mu.
func (i *Injector) linkOf(from, to *radio.Transceiver) *linkState {
	f, t := from.ID(), to.ID()
	for len(i.byID) <= f {
		i.byID = append(i.byID, nil)
	}
	for len(i.byID[f]) <= t {
		i.byID[f] = append(i.byID[f], nil)
	}
	st := i.byID[f][t]
	if st == nil {
		st = i.link(from.Name(), to.Name())
		i.byID[f][t] = st
	}
	return st
}

// noteFault records the simulated instant of a fault decision (callers
// hold i.mu).
func (i *Injector) noteFault(now time.Time) {
	if !i.haveFault || now.After(i.lastFault) {
		i.lastFault = now
		i.haveFault = true
	}
}

// AppendIntercept is the injector's radio.InterceptFunc: it decides, per
// frame delivery, whether the receiver sees the frame and in what form,
// and appends that answer to dst. Fault order per delivery is fixed —
// partition, burst loss, corruption, jitter, duplication — and each
// decision draws from the link's own stream, so the sequence is
// reproducible per link whatever else is on the air.
func (i *Injector) AppendIntercept(dst []radio.Delivery, from, to *radio.Transceiver, raw []byte) []radio.Delivery {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.decide(dst, i.linkOf(from, to), raw)
}

// Intercept is AppendIntercept for a caller that knows the endpoints by
// name only (radio.Medium.SetInterceptor): the same streams and the same
// decisions, in a slice of its own. It allocates that slice for every
// delivered frame; Attach installs AppendIntercept, which does not.
func (i *Injector) Intercept(from, to string, raw []byte) []radio.Delivery {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.decide(nil, i.link(from, to), raw)
}

// decide draws one delivery's faults from st and appends the deliveries
// the receiver gets to dst. Callers hold i.mu.
func (i *Injector) decide(dst []radio.Delivery, st *linkState, raw []byte) []radio.Delivery {
	var now time.Time
	if i.clock != nil {
		now = i.clock.Now()
	}
	i.stats.Deliveries++

	for _, p := range st.partitions {
		start := i.epoch.Add(p.From)
		if !now.Before(start) && now.Before(start.Add(p.For)) {
			i.stats.Partitioned++
			i.noteFault(now)
			return dst
		}
	}

	// Advance the Gilbert–Elliott channel one step, then draw the loss.
	if st.bad {
		if i.profile.BadToGood > 0 && st.rng.Float64() < i.profile.BadToGood {
			st.bad = false
		}
	} else if i.profile.GoodToBad > 0 && st.rng.Float64() < i.profile.GoodToBad {
		st.bad = true
	}
	lossP := i.profile.GoodLoss
	if st.bad {
		lossP = i.profile.BadLoss
	}
	if lossP > 0 && st.rng.Float64() < lossP {
		i.stats.Dropped++
		i.noteFault(now)
		return dst
	}

	var d radio.Delivery // the frame as transmitted, inline
	if i.profile.Corrupt > 0 && len(raw) > 0 && st.rng.Float64() < i.profile.Corrupt {
		d.Offset = st.rng.Intn(len(raw))
		d.Mask = 1 << st.rng.Intn(8)
		i.stats.Corrupted++
		i.noteFault(now)
	}

	if i.profile.Jitter > 0 && i.profile.JitterMax > 0 && st.rng.Float64() < i.profile.Jitter {
		d.Delay = time.Duration(1 + st.rng.Int63n(int64(i.profile.JitterMax)))
		i.stats.Delayed++
		i.noteFault(now)
	}

	if i.profile.Duplicate <= 0 || st.rng.Float64() >= i.profile.Duplicate {
		return append(dst, d)
	}
	// The copy trails the original by a couple of milliseconds, like a
	// retransmission the receiver's MAC never asked for.
	i.stats.Duplicated++
	i.noteFault(now)
	dup := d
	dup.Delay += 2 * time.Millisecond
	return append(dst, d, dup)
}

// fnv64a is the FNV-1a hash, used to derive per-link seeds.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
