// Package mutate implements phase 3's packet generator: ZCover's
// position-sensitive mutation (§III-D, Table I, Algorithm 1).
//
// The generator treats the application payload as the hierarchical
// structure of Fig. 6 — CMDCL at position 0, CMD at position 1, PARAMs in
// dependent positions — and mutates each position according to its
// spec-declared kind, using the mutation operators of Table I:
//
//	rand valid    replace with a randomly selected legal value
//	rand invalid  replace with a randomly selected illegal value
//	arith         add/subtract a small integer
//	interesting   replace with boundary/interesting values
//	insert        append a random byte
//
// Each class's stream starts with a deterministic *surface pass* that
// systematically applies these operators position by position (structural
// truncations, per-position pools, node-ID correlation pairs), then
// continues with random refinement. The surface pass is what makes
// ZCover's discoveries land within the first hundreds of packets (Fig. 12).
//
// The surface is enumerated, not stored: a stream derives its class's
// per-command pools and packet counts on first use and writes packet i
// into one buffer it owns. A payload returned by Stream.Next is valid
// until the next call to Next on the same stream; a caller that keeps it
// copies it.
package mutate

import (
	"fmt"
	"math/rand"

	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
)

// Semantics carries the network knowledge fingerprinting produced: the
// value pools behind the paper's "dynamic and semantic mutation".
type Semantics struct {
	// Controller is the target controller's node ID.
	Controller protocol.NodeID
	// KnownNodes lists every node observed on the network.
	KnownNodes []protocol.NodeID
}

// Interesting node IDs beyond the observed ones: broadcast, the two rogue
// IDs of Fig. 9, unassigned, and the last assignable ID.
var interestingNodeIDs = []byte{0xFF, 0x0A, 0xC8, 0x00, 0xE8}

// byte-position pools per parameter kind (the "interesting" operator's
// value sets).
var (
	bytePool    = []byte{0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF}
	bitmaskPool = []byte{0xFF, 0x80, 0x07, 0x00}
)

// insertTails are the trailing bytes the insert operator appends to a
// parameterless command.
var insertTails = []byte{0x00, 0xAA}

// opaqueSweep is the surface of a class with unknown structure: command
// bytes 0x00..0x10, each bare and with one zero parameter.
const opaqueSweep = 2 * 0x11

// Mode selects the generator behaviour.
type Mode int

// Modes. Enum starts at 1.
const (
	// ModePositionSensitive is ZCover's full mutator.
	ModePositionSensitive Mode = iota + 1
	// ModeRandom is the γ ablation: random command and parameter bytes
	// with no position awareness, no pools, no semantics.
	ModeRandom
)

// Mutator generates test payloads for target classes. Its semantic pools
// are derived once, in New, and never change, so streams only read it.
type Mutator struct {
	mode Mode
	seed int64
	// nodeIDs is the semantic node-ID value pool; corrNodeIDs holds the
	// same IDs in correlation-pass order.
	nodeIDs, corrNodeIDs []byte
}

// New returns the position-sensitive mutator.
func New(sem Semantics, seed int64) *Mutator {
	ids := nodeIDPool(sem)
	return &Mutator{
		mode: ModePositionSensitive, seed: seed,
		nodeIDs: ids, corrNodeIDs: correlationNodeIDs(sem, ids),
	}
}

// NewRandom returns the γ-ablation mutator.
func NewRandom(seed int64) *Mutator {
	return &Mutator{mode: ModeRandom, seed: seed}
}

// Mode reports the generator behaviour.
func (m *Mutator) Mode() Mode { return m.mode }

// nodeIDPool builds the semantic node-ID value pool: known slaves first
// (they make packets that reference real state), then the controller
// itself, then interesting IDs.
func nodeIDPool(sem Semantics) []byte {
	pool := make([]byte, 0, len(sem.KnownNodes)+1+len(interestingNodeIDs))
	var seen [256]bool
	add := func(b byte) {
		if !seen[b] {
			seen[b] = true
			pool = append(pool, b)
		}
	}
	for _, id := range sem.KnownNodes {
		if id != sem.Controller {
			add(byte(id))
		}
	}
	add(byte(sem.Controller))
	for _, b := range interestingNodeIDs {
		add(b)
	}
	return pool
}

// correlationNodeIDs orders the node-ID pool for the correlation pass:
// IDs *not* observed on the network first (rogue-insertion shapes are the
// whole point of correlating an unknown ID with type fields), then the
// known ones.
func correlationNodeIDs(sem Semantics, pool []byte) []byte {
	var known [256]bool
	for _, id := range sem.KnownNodes {
		known[id] = true
	}
	out := make([]byte, 0, len(pool))
	for _, v := range pool {
		if !known[v] {
			out = append(out, v)
		}
	}
	for _, v := range pool {
		if known[v] {
			out = append(out, v)
		}
	}
	return out
}

// appendPool appends the per-position mutation value pool for a
// parameter to dst.
func (m *Mutator) appendPool(dst []byte, p cmdclass.Param) []byte {
	switch p.Kind {
	case cmdclass.ParamNodeID:
		return append(dst, m.nodeIDs...)
	case cmdclass.ParamRange:
		dst = append(dst, p.Min, p.Max)
		if p.Max < 0xFF {
			dst = append(dst, p.Max+1)
		}
		if p.Min > 0 {
			dst = append(dst, p.Min-1)
		}
		return append(dst, 0xFF)
	case cmdclass.ParamEnum:
		dst = append(dst, p.Values...)
		if v, ok := invalidEnumValue(p); ok {
			dst = append(dst, v)
		}
		return dst
	case cmdclass.ParamBitmask:
		return append(dst, bitmaskPool...)
	default:
		return append(dst, bytePool...)
	}
}

// invalidEnumValue picks a byte outside the enum's legal set (rand
// invalid operator, deterministic flavour), searching down from 0xFD. An
// enum listing all 256 bytes has none: cmdclass.Parse rejects such a
// spec, so only a hand-built Param reports false.
func invalidEnumValue(p cmdclass.Param) (byte, bool) {
	v := byte(0xFD)
	for i := 0; i < 256; i++ {
		if !p.Legal(v) {
			return v, true
		}
		v--
	}
	return 0, false
}

// defaultValue is the semantically valid filler for positions not under
// mutation: a real slave node for node IDs, the first legal value
// otherwise.
func (m *Mutator) defaultValue(p cmdclass.Param) byte {
	switch p.Kind {
	case cmdclass.ParamNodeID:
		if len(m.nodeIDs) > 0 {
			return m.nodeIDs[0]
		}
		return 0x02
	case cmdclass.ParamRange:
		return p.Min
	case cmdclass.ParamEnum:
		if len(p.Values) > 0 {
			return p.Values[0]
		}
		return 0x00
	default:
		return 0x00
	}
}

// fixedParams returns the non-variadic parameter schemas of a command.
func fixedParams(cmd cmdclass.Command) []cmdclass.Param {
	out := cmd.Params
	for i, p := range out {
		if p.Kind == cmdclass.ParamVariadic {
			return out[:i]
		}
	}
	return out
}

// Stream produces test payloads for one class: a deterministic surface
// pass followed by unbounded random refinement.
//
// Opening a stream costs O(1). The first call that needs the surface
// derives the class's per-command pools and packet counts; the refinement
// RNG is seeded on the first random draw.
type Stream struct {
	class *cmdclass.Class
	mut   *Mutator

	planned bool
	surf    surface
	next    int
	rng     *rand.Rand
	buf     []byte // the payload Next returns
}

// surface is a class's deterministic pass in enumerable form: the
// per-command pools and packet counts from which packet i is written on
// demand.
type surface struct {
	cmds  []cmdPlan // spec order: passes 1a and 1b, refinement draws
	deep  []int     // pass-2 order as indices into cmds, richest first
	quick int       // packets in passes 1a + 1b
	size  int       // packets in the whole surface
}

// cmdPlan is one command's share of the surface.
type cmdPlan struct {
	id       byte
	defaults []byte   // semantically valid filler, one per fixed position
	pools    [][]byte // mutation value pool, one per fixed position
	first    []byte   // pass-1b pool: pools[0], or bytePool without parameters
	truncs   int      // truncated lengths swept (2 and 3, where shorter than spec)
	corrRow  int      // correlation packets per node ID; 0 without that pass
	deep     int      // packets in pass 2
}

// Stream starts a payload stream for the class.
func (m *Mutator) Stream(cls *cmdclass.Class) *Stream {
	return &Stream{class: cls, mut: m}
}

// QuickSize reports the size of the quick pass: the cheap class-wide
// sweeps (bare commands and single-position pools) the engine runs across
// every class before deep-diving any one of them.
func (s *Stream) QuickSize() int { return s.prepared().quick }

// Exhausted reports whether the deterministic surface has been consumed.
func (s *Stream) Exhausted() bool { return s.next >= s.prepared().size }

// SurfaceSize reports the deterministic prefix length.
func (s *Stream) SurfaceSize() int { return s.prepared().size }

// Seek positions the stream at surface packet i, so that the next Next
// returns it: Seek(QuickSize()) skips the quick pass, Seek(SurfaceSize())
// goes straight to random refinement. It panics outside [0, SurfaceSize()].
func (s *Stream) Seek(i int) {
	if size := s.prepared().size; i < 0 || i > size {
		panic(fmt.Sprintf("mutate: Seek(%d) outside surface of %d packets", i, size))
	}
	s.next = i
}

// Next returns the next test payload. The stream never ends: after the
// surface pass it generates random refinements indefinitely.
//
// The payload lives in a buffer the stream owns and reuses: it is valid
// until the next call to Next on this stream. Callers that retain it copy
// it.
func (s *Stream) Next() []byte {
	if s.next < s.prepared().size {
		p := s.packet(s.next)
		s.next++
		return p
	}
	if s.mut.mode == ModeRandom || len(s.class.Commands) == 0 {
		return s.randomNaive()
	}
	return s.randomRefinement()
}

// prepared returns the stream's enumeration state, deriving it on first
// use, and sizes the payload buffer for the longest packet the stream can
// produce: a γ draw or opaque sweep (6 bytes), or a command at its full
// fixed length plus one structural or inserted byte.
func (s *Stream) prepared() *surface {
	if !s.planned {
		s.planned = true
		maxLen := 2 + 4
		if s.mut.mode == ModePositionSensitive {
			if len(s.class.Commands) == 0 {
				s.surf.quick, s.surf.size = opaqueSweep, opaqueSweep
			} else {
				maxLen = max(maxLen, s.surf.plan(s.mut, s.class.Commands))
			}
		}
		s.buf = make([]byte, 0, maxLen)
	}
	return &s.surf
}

// plan derives the per-command pools, defaults and packet counts of a
// class with commands, and returns the longest payload its stream can
// produce.
func (sf *surface) plan(m *Mutator, cmds []cmdclass.Command) (maxLen int) {
	positions := 0
	for _, cmd := range cmds {
		positions += len(fixedParams(cmd))
	}
	sf.cmds = make([]cmdPlan, len(cmds))
	sf.deep = make([]int, len(cmds))
	pools := make([][]byte, positions)
	// One arena holds every command's defaults and pools. The capacity is
	// an estimate: a slice taken before an append outgrows it keeps the
	// old array, whose bytes are already final.
	arena := make([]byte, 0, positions*(1+len(bytePool)))
	for k, cmd := range cmds {
		fp := fixedParams(cmd)
		c := &sf.cmds[k]
		c.id = byte(cmd.ID)
		c.pools, pools = pools[:len(fp):len(fp)], pools[len(fp):]
		start := len(arena)
		for _, p := range fp {
			arena = append(arena, m.defaultValue(p))
		}
		c.defaults = arena[start:len(arena):len(arena)]
		for i, p := range fp {
			start = len(arena)
			arena = m.appendPool(arena, p)
			c.pools[i] = arena[start:len(arena):len(arena)]
		}
		c.count(fp, len(m.corrNodeIDs))
		sf.quick += 1 + len(c.first)
		sf.deep[k] = k
		maxLen = max(maxLen, 3+len(fp))
	}

	// Pass 2 runs command by command, richest first (more parameters, more
	// attack surface — the command-level analogue of the class
	// prioritisation), ties by ascending ID.
	richer := func(a, b *cmdPlan) bool {
		return len(a.pools) > len(b.pools) || (len(a.pools) == len(b.pools) && a.id < b.id)
	}
	for i := 1; i < len(sf.deep); i++ {
		for j := i; j > 0 && richer(&sf.cmds[sf.deep[j]], &sf.cmds[sf.deep[j-1]]); j-- {
			sf.deep[j], sf.deep[j-1] = sf.deep[j-1], sf.deep[j]
		}
	}

	sf.size = sf.quick
	for k := range sf.cmds {
		sf.size += sf.cmds[k].deep
	}
	return maxLen
}

// count sizes a command's passes from its pool lengths; corrIDs is the
// length of the correlation node-ID pool.
func (c *cmdPlan) count(fp []cmdclass.Param, corrIDs int) {
	c.first = bytePool // junk byte on a parameterless command
	if len(fp) > 0 {
		c.first = c.pools[0]
	}
	for plen := 2; plen <= 3 && plen < len(fp); plen++ {
		c.truncs++
	}
	c.deep = c.truncs * len(c.first)
	for _, pool := range c.pools {
		c.deep += len(pool)
	}
	if len(fp) > 0 {
		c.deep += len(c.first)
	} else {
		c.deep += len(insertTails)
	}
	if len(fp) >= 3 && fp[0].Kind == cmdclass.ParamNodeID {
		for _, pool := range c.pools[1:] {
			c.corrRow += min(len(pool), 3)
		}
		c.deep += corrIDs * c.corrRow
	}
}

// packet writes surface packet i into the stream buffer.
func (s *Stream) packet(i int) []byte {
	sf := &s.surf
	b := append(s.buf[:0], byte(s.class.ID))
	if len(sf.cmds) == 0 {
		// A proprietary class with unknown structure: sweep command bytes.
		b = append(b, byte(i/2))
		if i%2 == 1 {
			b = append(b, 0x00)
		}
		return b
	}

	switch n := len(sf.cmds); {
	case i < n:
		// Pass 1a: every command bare (ascending ID) — catches commands
		// whose parsers mishandle missing parameters.
		return append(b, sf.cmds[i].id)
	case i < sf.quick:
		// Pass 1b: every command with a single mutated first-position
		// value — the cheapest position-sensitive sweep, run across the
		// whole class before drilling into any one command.
		i -= n
		for k := range sf.cmds {
			c := &sf.cmds[k]
			if i < len(c.first) {
				return append(b, c.id, c.first[i])
			}
			i -= len(c.first)
		}
	}

	// Pass 2: the deep pipeline of each command in turn.
	i -= sf.quick
	for _, k := range sf.deep {
		c := &sf.cmds[k]
		if i < c.deep {
			return s.mut.deepPacket(append(b, c.id), c, i)
		}
		i -= c.deep
	}
	panic("mutate: surface index out of range")
}

// deepPacket appends packet j of a command's deep pass to b, which holds
// the class and command bytes: truncations, per-position pools at full
// length, insert, and node-ID correlation.
func (m *Mutator) deepPacket(b []byte, c *cmdPlan, j int) []byte {
	// Truncation sweep: spec-length violations with a mutated first
	// position (lengths 2..3 — length 0 and 1 ran in passes 1a/1b).
	w := len(c.first)
	if j < c.truncs*w {
		return append(append(b, c.first[j%w]), c.defaults[1:2+j/w]...)
	}
	j -= c.truncs * w

	// Positional pools at full length: mutate one position through its
	// pool, others semantically valid.
	b = append(b, c.defaults...)
	for pos, pool := range c.pools {
		if j < len(pool) {
			b[2+pos] = pool[j]
			return b
		}
		j -= len(pool)
	}

	// Insert operator: spec-length packet plus a trailing byte, with the
	// first position swept (a mutated-but-plausible oversize packet).
	if len(c.pools) == 0 {
		if j < len(insertTails) {
			return append(b, insertTails[j])
		}
		j -= len(insertTails)
	} else {
		if j < w {
			b[2] = c.first[j]
			return append(b, 0x00)
		}
		j -= w
	}

	// Correlation pass: when the first parameter is a node ID, its value
	// changes the meaning of every later field, so sweep (node ID ×
	// position value) pairs — the field-correlation idea the paper's
	// mutation is named for.
	b[2] = m.corrNodeIDs[j/c.corrRow]
	j %= c.corrRow
	for pos := 1; pos < len(c.pools); pos++ {
		pool := c.pools[pos]
		if len(pool) > 3 {
			pool = pool[:3]
		}
		if j < len(pool) {
			b[2+pos] = pool[j]
			return b
		}
		j -= len(pool)
	}
	panic("mutate: command surface index out of range")
}

// random returns the refinement RNG, seeding it on first use with the
// per-class seed, so the draws do not depend on when that happens.
func (s *Stream) random() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.mut.seed ^ int64(s.class.ID)<<32))
	}
	return s.rng
}

// randomRefinement applies Table I operators randomly after the surface
// pass is exhausted.
func (s *Stream) randomRefinement() []byte {
	rng := s.random()
	b := append(s.buf[:0], byte(s.class.ID))
	// rand valid command (80%) or rand invalid command byte (20%).
	if rng.Intn(5) == 0 {
		b = append(b, byte(rng.Intn(256)))
		return s.appendRandomBytes(b, rng.Intn(4))
	}
	c := &s.surf.cmds[rng.Intn(len(s.surf.cmds))]
	b = append(b, c.id)
	plen := len(c.pools)
	if rng.Intn(3) == 0 { // structural mutation: wrong length
		plen = rng.Intn(len(c.pools) + 2)
	}
	for i := 0; i < plen; i++ {
		def, pool := byte(0x00), bytePool // past the spec: a plain byte
		if i < len(c.pools) {
			def, pool = c.defaults[i], c.pools[i]
		}
		b = append(b, s.mutateValue(def, pool))
	}
	return b
}

// mutateValue applies one randomly chosen Table I operator to a position
// with semantically valid value def and value pool pool.
func (s *Stream) mutateValue(def byte, pool []byte) byte {
	switch s.rng.Intn(4) {
	case 0: // rand valid
		return def
	case 1: // rand invalid / random byte
		return byte(s.rng.Intn(256))
	case 2: // arith
		return def + byte(s.rng.Intn(9)) - 4
	default: // interesting
		return pool[s.rng.Intn(len(pool))]
	}
}

// randomNaive is the γ generator: random command (from the spec list when
// the class is known, random byte otherwise) and uniformly random
// parameter bytes of random length — no pools, no semantics, no position
// awareness.
func (s *Stream) randomNaive() []byte {
	rng := s.random()
	b := append(s.buf[:0], byte(s.class.ID))
	if cmds := s.class.Commands; len(cmds) > 0 {
		b = append(b, byte(cmds[rng.Intn(len(cmds))].ID))
	} else {
		b = append(b, byte(rng.Intn(256)))
	}
	return s.appendRandomBytes(b, rng.Intn(5))
}

// appendRandomBytes appends n uniform bytes to b.
func (s *Stream) appendRandomBytes(b []byte, n int) []byte {
	for i := 0; i < n; i++ {
		b = append(b, byte(s.rng.Intn(256)))
	}
	return b
}

// RandomQueue builds the γ configuration's class queue: all 256 class IDs
// in shuffled order, resolved against the public spec where possible and
// as opaque classes otherwise. No prioritisation, no discovery.
func RandomQueue(reg *cmdclass.Registry, seed int64) []*cmdclass.Class {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cmdclass.Class, 0, 256)
	for id := 0; id < 256; id++ {
		if cls, ok := reg.Get(cmdclass.ClassID(id)); ok {
			out = append(out, cls)
			continue
		}
		out = append(out, &cmdclass.Class{
			ID: cmdclass.ClassID(id), Name: "UNKNOWN",
			Category: cmdclass.CategoryApplication, Scope: cmdclass.ScopeSlave,
		})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
