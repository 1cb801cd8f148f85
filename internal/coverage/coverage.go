// Package coverage provides the behavioral-coverage signal that turns the
// spec-driven generational fuzzer into a feedback-driven one (CovFUZZ-style
// coverage guidance, transplanted to an emulated target we fully control).
//
// Over-the-air fuzzers are blind: they see acks and silence. Because every
// testbed controller is emulated in-process, the simulation can expose what
// real firmware hides — which dispatch paths a payload reached, how deeply
// its encapsulations unwrapped, whether it arrived through the S2 session,
// which Serial API handlers the host exercised, and how close the oracle
// came to firing. The Collector folds those observations into a fixed-size
// feature map; the CovFuzz engine admits an input to its corpus exactly
// when the input's map footprint contains something the campaign has not
// seen before.
//
// # Determinism
//
// The map is a plain array indexed by a multiplicative hash of a packed
// feature key. No Go map iteration, no wall clock, no RNG: replaying the
// same frame sequence against the same controller reproduces the same map
// bit for bit, which is what makes corpus checkpoint replay (and the
// workers=1 vs workers=N table identity) sound.
//
// # Hot-path cost
//
// Hooks are nil-guarded at every call site, so a campaign that does not
// attach a Collector pays one pointer compare per dispatched frame and
// allocates nothing (the PERFORMANCE.md contract). With a Collector
// attached, recording is array arithmetic on preallocated storage; the
// only allocations are the one-time NewCollector buffers and the amortised
// growth of the per-input touched list.
package coverage

// mapBits sizes the feature map: 64 Ki buckets comfortably holds the full
// feature space (site × class × cmd × depth × security is ~2^21 packed
// keys, but a campaign touches a few thousand) at negligible collision
// rates, while keeping the Collector's fixed buffers at ~500 KiB.
const mapBits = 16

// MapSize is the number of buckets in the coverage map.
const MapSize = 1 << mapBits

// Hook sites: the top nibble of a packed feature key names the
// instrumentation point that produced it, so the same (class, cmd) pair
// reached through different layers counts as different behaviour.
const (
	siteDispatch uint32 = 1 // application-layer dispatch (controller)
	siteSerial   uint32 = 2 // Serial API handler invocation
	siteOracle   uint32 = 3 // oracle anomaly emission
)

// countClass buckets a per-input hit count AFL-style, so "this payload hit
// the supervision parser 40 times" is a different feature from "once"
// without every count being novel.
func countClass(n uint16) uint8 {
	switch {
	case n == 0:
		return 0
	case n == 1:
		return 1 << 0
	case n == 2:
		return 1 << 1
	case n == 3:
		return 1 << 2
	case n <= 7:
		return 1 << 3
	case n <= 15:
		return 1 << 4
	case n <= 31:
		return 1 << 5
	case n <= 127:
		return 1 << 6
	default:
		return 1 << 7
	}
}

// Collector accumulates behavioral coverage for one campaign. It is NOT
// safe for concurrent use: a campaign's simulation driver is
// single-threaded (the fleet gives every campaign a private testbed), and
// keeping the recorder lock-free is what keeps the attached-but-idle cost
// near zero. One Collector observes one testbed.
type Collector struct {
	// classes is the accumulated map: per bucket, the bitmask of count
	// classes observed across all admitted measurement windows.
	classes [MapSize]uint8
	// cur / stamp implement O(touched) per-input reset: cur[i] is valid
	// only when stamp[i] == epoch, so BeginInput is a counter increment
	// rather than a 64 Ki memset.
	cur   [MapSize]uint16
	stamp [MapSize]uint32
	epoch uint32
	// touched lists the buckets hit since BeginInput, in first-hit order.
	touched []uint32

	features int
	inputs   uint64
	novel    uint64
}

// NewCollector builds an empty coverage map.
func NewCollector() *Collector {
	return &Collector{
		epoch:   1,
		touched: make([]uint32, 0, 256),
	}
}

// record folds one packed feature key into the current input's footprint.
func (c *Collector) record(key uint32) {
	// Multiplicative hashing (Knuth's 2654435761) spreads the packed keys
	// across the map; deterministic, no per-call state.
	idx := (key * 2654435761) >> (32 - mapBits)
	if c.stamp[idx] != c.epoch {
		c.stamp[idx] = c.epoch
		c.cur[idx] = 0
		c.touched = append(c.touched, idx)
	}
	if c.cur[idx] != ^uint16(0) {
		c.cur[idx]++
	}
}

// OnDispatch records an application-layer dispatch: the controller routed
// a payload of the given class and command at the given encapsulation
// depth; secure marks payloads that arrived through the S2 session (the
// "security class reached" axis).
func (c *Collector) OnDispatch(class, cmd byte, depth int, secure bool) {
	if c == nil {
		return
	}
	key := siteDispatch<<28 | uint32(class)<<16 | uint32(cmd)<<8 | uint32(depth&0x3)<<1
	if secure {
		key |= 1
	}
	c.record(key)
}

// OnSerial records a Serial API function invocation on the host interface.
func (c *Collector) OnSerial(funcID byte) {
	if c == nil {
		return
	}
	c.record(siteSerial<<28 | uint32(funcID))
}

// OnOracle records an oracle anomaly emission. Both the exact
// (kind, class, cmd) tuple and the coarse kind-only feature are recorded:
// the coarse feature makes any first sighting of an anomaly kind novel,
// and the exact one keeps distinct trigger vectors distinguishable — the
// "oracle-event proximity" axis that rewards inputs landing near an
// already-known effect through a new vector.
func (c *Collector) OnOracle(kind int, class, cmd byte) {
	if c == nil {
		return
	}
	c.record(siteOracle<<28 | uint32(kind&0xFF)<<16 | uint32(class)<<8 | uint32(cmd))
	c.record(siteOracle<<28 | 0xFF0000 | uint32(kind&0xFF))
}

// BeginInput opens a measurement window: subsequent hook records are
// attributed to the input under test until EndInput.
func (c *Collector) BeginInput() {
	c.epoch++
	c.touched = c.touched[:0]
}

// EndInput closes the measurement window and folds the input's footprint
// into the accumulated map. It returns the number of new features the
// input contributed — new buckets and new hit-count classes of known
// buckets both count; zero means the input exhibited nothing unseen. This
// is the corpus admission signal.
func (c *Collector) EndInput() (newFeatures int) {
	c.inputs++
	for _, idx := range c.touched {
		cls := countClass(c.cur[idx])
		if c.classes[idx]&cls != 0 {
			continue
		}
		if c.classes[idx] == 0 {
			c.features++
		}
		c.classes[idx] |= cls
		newFeatures++
	}
	if newFeatures > 0 {
		c.novel++
	}
	return newFeatures
}

// Features reports how many distinct map buckets have been hit.
func (c *Collector) Features() int { return c.features }

// Density reports the fraction of map buckets hit, in [0, 1].
func (c *Collector) Density() float64 { return float64(c.features) / MapSize }

// Inputs reports how many measurement windows have been closed.
func (c *Collector) Inputs() uint64 { return c.inputs }

// NovelInputs reports how many windows contributed at least one new
// feature.
func (c *Collector) NovelInputs() uint64 { return c.novel }

// Stats is a serialisable summary of a Collector — what campaign results
// and the -coverage-out artifact carry.
type Stats struct {
	// Features is the number of distinct map buckets hit.
	Features int `json:"features"`
	// Density is Features / MapSize.
	Density float64 `json:"density"`
	// Inputs and NovelInputs count measurement windows.
	Inputs      uint64 `json:"inputs"`
	NovelInputs uint64 `json:"novel_inputs"`
}

// Stats snapshots the collector's summary.
func (c *Collector) Stats() Stats {
	return Stats{
		Features:    c.features,
		Density:     c.Density(),
		Inputs:      c.inputs,
		NovelInputs: c.novel,
	}
}
