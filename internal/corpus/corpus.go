// Package corpus manages the seed corpus of the coverage-guided fuzzing
// engine: admission of coverage-novel inputs, deterministic power-schedule
// mutation of admitted seeds, optional PoC-style seed minimisation, and
// crash-safe persistence on the checkpoint journal format.
//
// Everything here is deterministic by construction. Admission order is the
// engine's test order; seed IDs are dense and sequential; variants are
// derived from (campaign seed, seed ID, variant index) through a fixed
// mixing function plus the position-sensitive mutation streams of
// internal/zcover/mutate. There is no wall clock, no global RNG, and no Go
// map iteration, so a killed and resumed campaign regenerates the same
// corpus byte for byte — which the journal verifies record by record.
package corpus

import (
	"bytes"
	"fmt"

	"zcover/internal/cmdclass"
	"zcover/internal/telemetry"
	"zcover/internal/zcover/minimize"
	"zcover/internal/zcover/mutate"
)

// Process-wide corpus metrics.
var (
	mAdmitted  = telemetry.Default().Counter("corpus_seeds_admitted_total")
	mReplayed  = telemetry.Default().Counter("corpus_seeds_replayed_total")
	mMinimized = telemetry.Default().Counter("corpus_seeds_minimized_total")
	mVariants  = telemetry.Default().Counter("corpus_variants_total")
)

// maxEnergy caps a seed's per-visit mutation budget so one very novel seed
// cannot starve the rest of the corpus.
const maxEnergy = 16

// maxVariantLen bounds grown variants; anything longer would be rejected
// by the frame codec anyway and waste the draw.
const maxVariantLen = 48

// Seed is one admitted corpus entry.
type Seed struct {
	// ID is the dense admission index (0, 1, 2, ...).
	ID int `json:"id"`
	// Payload is the application payload under management. When Minimized
	// is set this is the reduced form; Original preserves the admitted
	// bytes.
	Payload []byte `json:"payload"`
	// Original is the payload as admitted, kept only when minimisation
	// changed it (replay validation compares against it).
	Original []byte `json:"original,omitempty"`
	// NewFeatures is how many coverage-map features the seed contributed
	// at admission — the input to the power schedule.
	NewFeatures int `json:"new_features"`
	// Energy is the per-visit mutation budget the scheduler grants.
	Energy int `json:"energy"`
	// Signature is the oracle signature the seed triggered, when it was a
	// finding (minimisation target); empty for coverage-only seeds.
	Signature string `json:"signature,omitempty"`
	// Minimized marks seeds whose payload was reduced via minimize.
	Minimized bool `json:"minimized,omitempty"`
	// Trace is the bounded flight-recorder snapshot captured at admission
	// — the same replayable post-mortem fuzz findings carry — so a corpus
	// entry journaled to JSONL documents the frames that led to it.
	Trace []telemetry.FrameRecord `json:"trace,omitempty"`
}

// energyFor is the power schedule: a base budget plus the admission
// novelty, capped. Deterministic in the seed's recorded features.
func energyFor(newFeatures int) int {
	e := 2 + newFeatures
	if e > maxEnergy {
		e = maxEnergy
	}
	return e
}

// Manager owns one campaign's corpus. Not safe for concurrent use: like
// the coverage Collector it belongs to a single campaign goroutine.
type Manager struct {
	mut          *mutate.Mutator
	campaignSeed int64

	classes map[cmdclass.ClassID]*cmdclass.Class
	streams map[cmdclass.ClassID]*mutate.Stream

	minimizer *minimize.Minimizer

	seeds []*Seed

	journal    *Journal
	nextReplay int
}

// NewManager builds a corpus manager. mut supplies the spec-aware variant
// draws (the mutate reuse of the power schedule); queue is the campaign's
// class queue, used to resolve per-class mutation streams; campaignSeed
// feeds the havoc mixing function.
func NewManager(mut *mutate.Mutator, queue []*cmdclass.Class, campaignSeed int64) *Manager {
	m := &Manager{
		mut:          mut,
		campaignSeed: campaignSeed,
		classes:      make(map[cmdclass.ClassID]*cmdclass.Class, len(queue)),
		streams:      make(map[cmdclass.ClassID]*mutate.Stream, len(queue)),
	}
	for _, cls := range queue {
		if _, ok := m.classes[cls.ID]; !ok {
			m.classes[cls.ID] = cls
		}
	}
	return m
}

// SetMinimizer enables seed minimisation: seeds admitted with an oracle
// signature are reduced to their minimal trigger before storage. Nil
// disables (the default — minimisation probes fresh testbeds and is
// wall-clock expensive).
func (m *Manager) SetMinimizer(mz *minimize.Minimizer) { m.minimizer = mz }

// AttachJournal installs the corpus journal. Seeds already present in the
// journal (a resumed campaign) become the replay prefix: subsequent Admit
// calls must reproduce them byte-identically and are served from the
// journal instead of being re-appended.
func (m *Manager) AttachJournal(j *Journal) { m.journal = j }

// Len reports the corpus size.
func (m *Manager) Len() int { return len(m.seeds) }

// Seed returns the i-th admitted seed (admission order).
func (m *Manager) Seed(i int) *Seed { return m.seeds[i] }

// Seeds returns the live seed slice (admission order); callers must not
// mutate it.
func (m *Manager) Seeds() []*Seed { return m.seeds }

// Admit adds a coverage-novel input to the corpus. newFeatures is the
// coverage novelty that justified admission (drives the power schedule),
// signature is the oracle signature when the input was also a finding, and
// trace is the bounded flight-recorder snapshot at admission time.
//
// With a journal attached, admissions inside the replay prefix are
// validated against the journaled record — a mismatch means the campaign
// did not replay deterministically and is an error, not a silent fork —
// and admissions beyond the prefix are appended crash-safely.
func (m *Manager) Admit(payload []byte, newFeatures int, signature string, trace []telemetry.FrameRecord) (*Seed, error) {
	s := &Seed{
		ID:          len(m.seeds),
		Payload:     append([]byte{}, payload...),
		NewFeatures: newFeatures,
		Energy:      energyFor(newFeatures),
		Signature:   signature,
		Trace:       trace,
	}

	if m.journal != nil && m.nextReplay < len(m.journal.replay) {
		// Replay prefix: the journal already holds this admission.
		rec := m.journal.replay[m.nextReplay]
		admitted := rec.Payload
		if rec.Minimized {
			admitted = rec.Original
		}
		if rec.ID != s.ID || !bytes.Equal(admitted, s.Payload) || rec.Signature != s.Signature {
			return nil, fmt.Errorf(
				"corpus: replay divergence at seed %d: journal admitted %x (sig %q), campaign produced %x (sig %q) — the journal belongs to a different campaign state",
				s.ID, admitted, rec.Signature, s.Payload, s.Signature)
		}
		m.nextReplay++
		m.seeds = append(m.seeds, rec)
		mReplayed.Inc()
		return rec, nil
	}

	if m.minimizer != nil && s.Signature != "" {
		// A finding seed: reduce it to its minimal trigger. Failure to
		// reproduce on a fresh device (stateful bugs) keeps the original.
		if res, err := m.minimizer.Minimize(s.Payload, s.Signature); err == nil && len(res.Minimal) < len(s.Payload) {
			s.Original = s.Payload
			s.Payload = append([]byte{}, res.Minimal...)
			s.Minimized = true
			mMinimized.Inc()
		}
	}

	if m.journal != nil {
		if err := m.journal.append(s); err != nil {
			return nil, err
		}
	}
	m.seeds = append(m.seeds, s)
	mAdmitted.Inc()
	return s, nil
}

// stream lazily resolves the spec-aware mutation stream for a class.
func (m *Manager) stream(id cmdclass.ClassID) *mutate.Stream {
	if st, ok := m.streams[id]; ok {
		return st
	}
	cls, ok := m.classes[id]
	if !ok {
		return nil
	}
	st := m.mut.Stream(cls)
	// The corpus stream continues where the engine's exploration already
	// walked: skip the quick prefix so variants draw from the structural
	// and positional passes instead of repeating the bare commands.
	st.Seek(st.QuickSize())
	m.streams[id] = st
	return st
}

// havocPool is the boundary-value pool havoc mutations draw from.
var havocPool = [...]byte{0x00, 0x01, 0x0F, 0x20, 0x7F, 0x80, 0xFE, 0xFF}

// mix is SplitMix64's finaliser: the deterministic scalar mixer behind
// variant derivation.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Variant derives the k-th mutation of a seed. Every fourth draw continues
// the seed class's position-sensitive mutation stream (the mutate reuse:
// spec-aware structural, positional, and correlation operators); the rest
// are havoc edits of the seed payload — byte pools, bit flips, truncation,
// growth — derived purely from (campaignSeed, seed.ID, k). A stream draw
// is the stream's reused buffer (see mutate.Stream.Next): it is valid
// until the next Variant, and a caller that keeps it copies it, as Admit
// does.
func (m *Manager) Variant(s *Seed, k int) []byte {
	mVariants.Inc()
	if k%4 == 3 && len(s.Payload) >= 1 {
		if st := m.stream(cmdclass.ClassID(s.Payload[0])); st != nil {
			return st.Next()
		}
	}

	out := append(make([]byte, 0, len(s.Payload)+4), s.Payload...)
	h := mix(uint64(m.campaignSeed)^uint64(s.ID)<<32) ^ mix(uint64(k)*0x9E3779B97F4A7C15+1)
	ops := 1 + int(h%3)
	for op := 0; op < ops; op++ {
		h = mix(h)
		switch h % 5 {
		case 0: // boundary-value byte (parameter positions only)
			if len(out) > 2 {
				h = mix(h)
				pos := 2 + int(h%uint64(len(out)-2))
				h = mix(h)
				out[pos] = havocPool[h%uint64(len(havocPool))]
			} else {
				h = mix(h)
				out = append(out, havocPool[h%uint64(len(havocPool))])
			}
		case 1: // bit flip (parameter positions only)
			if len(out) > 2 {
				h = mix(h)
				pos := 2 + int(h%uint64(len(out)-2))
				h = mix(h)
				out[pos] ^= 1 << (h % 8)
			}
		case 2: // truncate the tail, keeping CMDCL+CMD
			if len(out) > 2 {
				h = mix(h)
				out = out[:2+int(h%uint64(len(out)-2))]
			}
		case 3: // grow with a boundary byte
			if len(out) < maxVariantLen {
				h = mix(h)
				out = append(out, havocPool[h%uint64(len(havocPool))])
			}
		case 4: // duplicate a parameter byte to the tail (field overflow)
			if len(out) > 2 && len(out) < maxVariantLen {
				h = mix(h)
				out = append(out, out[2+int(h%uint64(len(out)-2))])
			}
		}
	}
	return out
}
