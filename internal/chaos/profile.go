package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Partition schedules a node outage: every frame to or from a transceiver
// whose name contains Node is swallowed during [From, From+For), measured
// from the instant the injector is attached.
type Partition struct {
	// Node is matched as a substring of transceiver names ("lock" matches
	// "D1-lock"); an empty string matches nothing.
	Node string
	// From is the offset from attach time at which the outage starts.
	From time.Duration
	// For is how long the outage lasts; zero disables the partition.
	For time.Duration
}

// Profile is one impairment configuration. The zero value injects no
// faults; a Profile is plain data and safe to copy.
type Profile struct {
	// Name labels the profile in reports and flags.
	Name string

	// GoodLoss and BadLoss are the per-frame loss probabilities of the
	// Gilbert–Elliott channel's good and bad states. GoodToBad and
	// BadToGood are the per-frame state transition probabilities; with
	// both zero the channel stays in the good state and GoodLoss acts as
	// plain independent loss.
	GoodLoss  float64
	BadLoss   float64
	GoodToBad float64
	BadToGood float64

	// Corrupt is the probability a delivered frame has one random bit
	// flipped (the CS-8 / CRC-16 rejection path on the receiver).
	Corrupt float64

	// Duplicate is the probability a delivered frame arrives twice.
	Duplicate float64

	// Jitter is the probability a delivered frame is delayed by a uniform
	// extra latency in (0, JitterMax] — enough to reorder it past frames
	// sent later.
	Jitter    float64
	JitterMax time.Duration

	// Partitions are scheduled node outages.
	Partitions []Partition
}

// Enabled reports whether the profile can inject any fault at all.
func (p Profile) Enabled() bool {
	if p.GoodLoss > 0 || p.BadLoss > 0 || p.Corrupt > 0 || p.Duplicate > 0 {
		return true
	}
	if p.Jitter > 0 && p.JitterMax > 0 {
		return true
	}
	for _, pt := range p.Partitions {
		if pt.Node != "" && pt.For > 0 {
			return true
		}
	}
	return false
}

// String renders the profile compactly for reports.
func (p Profile) String() string {
	if p.Name != "" {
		return p.Name
	}
	if !p.Enabled() {
		return "none"
	}
	return "custom"
}

// builtins are the named impairment profiles. "burst" approximates the
// paper testbed's worst observed RF (occasional deep fades), "noise" and
// "jitter" isolate single fault types, "partition" reproduces the ISSUE's
// "partition D8 from t=2h for 10m" scenario against the lock, and
// "lossy"/"stress" are mild and harsh combinations.
var builtins = map[string]Profile{
	"none": {Name: "none"},
	"burst": {Name: "burst",
		GoodLoss: 0.002, BadLoss: 0.5, GoodToBad: 0.03, BadToGood: 0.25},
	"noise": {Name: "noise", Corrupt: 0.05},
	"jitter": {Name: "jitter",
		Jitter: 0.3, JitterMax: 60 * time.Millisecond, Duplicate: 0.02},
	"partition": {Name: "partition",
		Partitions: []Partition{{Node: "lock", From: 2 * time.Hour, For: 10 * time.Minute}}},
	"lossy": {Name: "lossy",
		GoodLoss: 0.01, BadLoss: 0.3, GoodToBad: 0.02, BadToGood: 0.3,
		Corrupt: 0.01, Duplicate: 0.01,
		Jitter: 0.1, JitterMax: 20 * time.Millisecond},
	"stress": {Name: "stress",
		GoodLoss: 0.05, BadLoss: 0.6, GoodToBad: 0.05, BadToGood: 0.2,
		Corrupt: 0.05, Duplicate: 0.05,
		Jitter: 0.25, JitterMax: 80 * time.Millisecond,
		Partitions: []Partition{{Node: "lock", From: time.Hour, For: 5 * time.Minute}}},
}

// Profiles lists the built-in profile names, sorted.
func Profiles() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseProfile resolves a -chaos-profile flag value: a built-in name
// ("burst"), optionally followed by colon-separated key=value overrides
// ("burst:badloss=0.7,corrupt=0.01"). Recognised keys: goodloss, badloss,
// gtob, btog, corrupt, dup, jitterp, jittermax (a duration), and
// partition=node@FROM/FOR (repeatable; durations like 2h, 10m).
func ParseProfile(spec string) (Profile, error) {
	name, rest, hasRest := strings.Cut(strings.TrimSpace(spec), ":")
	name = strings.ToLower(strings.TrimSpace(name))
	p, ok := builtins[name]
	if !ok {
		return Profile{}, fmt.Errorf("chaos: unknown profile %q (builtins: %s)",
			name, strings.Join(Profiles(), ", "))
	}
	// Builtin partitions are shared slices; copy before overrides append.
	p.Partitions = append([]Partition(nil), p.Partitions...)
	if !hasRest {
		return p, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Profile{}, fmt.Errorf("chaos: override %q is not key=value", kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "goodloss":
			p.GoodLoss, err = parseProb(val)
		case "badloss":
			p.BadLoss, err = parseProb(val)
		case "gtob":
			p.GoodToBad, err = parseProb(val)
		case "btog":
			p.BadToGood, err = parseProb(val)
		case "corrupt":
			p.Corrupt, err = parseProb(val)
		case "dup":
			p.Duplicate, err = parseProb(val)
		case "jitterp":
			p.Jitter, err = parseProb(val)
		case "jittermax":
			p.JitterMax, err = time.ParseDuration(val)
		case "partition":
			var pt Partition
			pt, err = parsePartition(val)
			if err == nil {
				p.Partitions = append(p.Partitions, pt)
			}
		default:
			return Profile{}, fmt.Errorf("chaos: unknown override key %q", key)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("chaos: override %s: %w", key, err)
		}
	}
	if p.JitterMax < 0 || p.Jitter > 0 && p.JitterMax == 0 {
		return Profile{}, fmt.Errorf("chaos: jittermax %s must be >= 0, and > 0 when jitterp > 0", p.JitterMax)
	}
	p.Name = name + ":" + rest
	return p, nil
}

// parseProb parses a probability and checks it is in [0,1].
func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(v >= 0 && v <= 1) { // NaN fails both
		return 0, fmt.Errorf("probability %v outside [0,1]", v)
	}
	return v, nil
}

// parsePartition parses "node@FROM/FOR", e.g. "lock@2h/10m".
func parsePartition(s string) (Partition, error) {
	node, sched, ok := strings.Cut(s, "@")
	if !ok || node == "" {
		return Partition{}, fmt.Errorf("partition %q is not node@from/for", s)
	}
	fromStr, forStr, ok := strings.Cut(sched, "/")
	if !ok {
		return Partition{}, fmt.Errorf("partition %q is not node@from/for", s)
	}
	from, err := time.ParseDuration(fromStr)
	if err != nil {
		return Partition{}, err
	}
	dur, err := time.ParseDuration(forStr)
	if err != nil {
		return Partition{}, err
	}
	if from < 0 || dur <= 0 {
		return Partition{}, fmt.Errorf("partition %q needs from >= 0 and for > 0", s)
	}
	return Partition{Node: node, From: from, For: dur}, nil
}
