package harness

import (
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// TestGoldenD1DiscoverySequence pins the exact discovery order of the
// reference campaign (D1, one hour, the Table VI seed). Every component —
// clock, radio, spec database, mutator schedule, engine pacing,
// vulnerability models — feeds this sequence, so any accidental behaviour
// drift anywhere in the stack shows up here first. Deliberate changes to
// the schedule should update this table consciously.
func TestGoldenD1DiscoverySequence(t *testing.T) {
	tb, err := testbed.New("D1", deviceSeed("D1"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: time.Hour, Seed: deviceSeed("D1")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := out.Campaign
	want := []struct {
		signature string
		packets   int
		elapsed   time.Duration // rounded to seconds
	}{
		{"service-hang/0x01/0x04", 45, 0*time.Minute + 22*time.Second},
		{"node-removed/0x01/0x0D", 90, 4*time.Minute + 50*time.Second},
		{"database-overwritten/0x01/0x0D", 93, 4*time.Minute + 51*time.Second},
		{"wakeup-cleared/0x01/0x0D", 159, 5*time.Minute + 24*time.Second},
		{"host-crash/0x9F/0x01", 338, 6*time.Minute + 54*time.Second},
		{"service-hang/0x7A/0x03", 616, 9*time.Minute + 13*time.Second},
		{"service-hang/0x7A/0x01", 624, 10*time.Minute + 20*time.Second},
		{"service-hang/0x86/0x13", 760, 12*time.Minute + 36*time.Second},
		{"service-hang/0x59/0x03", 854, 13*time.Minute + 28*time.Second},
		{"service-hang/0x59/0x05", 859, 14*time.Minute + 38*time.Second},
		{"service-hang/0x5A/0x01", 1614, 21*time.Minute + 59*time.Second},
		{"rogue-node-added/0x01/0x0D", 1703, 23*time.Minute + 51*time.Second},
		{"node-tampered/0x01/0x0D", 1709, 23*time.Minute + 54*time.Second},
		{"host-dos/0x73/0x04", 3823, 41*time.Minute + 31*time.Second},
	}
	if len(c.Fuzz.Findings) != len(want) {
		var got []string
		for _, f := range c.Fuzz.Findings {
			got = append(got, f.Signature)
		}
		t.Fatalf("found %d bugs, want %d: %v", len(c.Fuzz.Findings), len(want), got)
	}
	for i, w := range want {
		f := c.Fuzz.Findings[i]
		if f.Signature != w.signature {
			t.Errorf("finding %d = %s, want %s", i, f.Signature, w.signature)
			continue
		}
		if f.Packets != w.packets {
			t.Errorf("%s at packet %d, want %d", w.signature, f.Packets, w.packets)
		}
		if got := f.Elapsed.Round(time.Second); got != w.elapsed {
			t.Errorf("%s at %s, want %s", w.signature, got, w.elapsed)
		}
	}
}
