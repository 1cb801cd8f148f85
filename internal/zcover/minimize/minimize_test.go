package minimize_test

import (
	"bytes"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/minimize"
)

func TestMinimizeTrimsTrailingJunk(t *testing.T) {
	m := minimize.New("D1", 71)
	// Bug 09 fires on any 0x7A/0x01 with trailing bytes; a single junk
	// byte suffices, and it can be zero.
	res, err := m.Minimize([]byte{0x7A, 0x01, 0xAA, 0xBB, 0xCC, 0xDD}, "service-hang/0x7A/0x01")
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x7A, 0x01, 0x00}; !bytes.Equal(res.Minimal, want) {
		t.Fatalf("minimal = % X, want % X", res.Minimal, want)
	}
	if res.Saved() != 3 {
		t.Fatalf("saved = %d", res.Saved())
	}
}

func TestMinimizePreservesEssentialStructure(t *testing.T) {
	m := minimize.New("D1", 72)
	// Bug 01 needs the node ID and a conflicting non-zero generic type;
	// minimisation may trim the tail behind the generic byte but must not
	// zero the two load-bearing parameters.
	payload := []byte{0x01, 0x0D, 0x02, 0x80, 0x40, 0x20, 0x04, 0x10, 0x01}
	res, err := m.Minimize(payload, "node-tampered/0x01/0x0D")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Minimal) != 9 { // fixed 7-parameter layout is required
		t.Fatalf("minimal = % X", res.Minimal)
	}
	if res.Minimal[2] != 0x02 {
		t.Fatal("node ID was zeroed away")
	}
	if res.Minimal[7] == 0x00 {
		t.Fatal("generic type was zeroed away")
	}
	// Everything non-essential is zeroed.
	for _, i := range []int{3, 4, 5, 6, 8} {
		if res.Minimal[i] != 0x00 {
			t.Fatalf("byte %d not zeroed: % X", i, res.Minimal)
		}
	}
}

func TestMinimizeBoundaryTrigger(t *testing.T) {
	m := minimize.New("D4", 73)
	// Bug 10 needs a non-zero unsupported class value: zeroing must fail,
	// trimming must stop at one parameter.
	res, err := m.Minimize([]byte{0x86, 0x13, 0xE0, 0x11, 0x22}, "service-hang/0x86/0x13")
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x86, 0x13, 0xE0}; !bytes.Equal(res.Minimal, want) {
		t.Fatalf("minimal = % X, want % X", res.Minimal, want)
	}
}

func TestMinimizeRejectsNonReproducingPayload(t *testing.T) {
	m := minimize.New("D1", 74)
	if _, err := m.Minimize([]byte{0x20, 0x02}, "service-hang/0x86/0x13"); err == nil {
		t.Fatal("accepted a payload that does not reproduce")
	}
}

func TestMinimizeCampaignFindings(t *testing.T) {
	tb, err := testbed.New("D1", 75)
	if err != nil {
		t.Fatal(err)
	}
	out, err := harness.Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: 30 * time.Minute, Seed: 75}, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := out.Campaign
	m := minimize.New("D1", 76)
	minimised := 0
	for _, f := range c.Fuzz.Findings {
		res, err := m.Minimize(f.TriggerPayload, f.Signature)
		if err != nil {
			// Rogue insertion is state-dependent (see the PoC tests);
			// everything else must minimise.
			if f.Signature == "rogue-node-added/0x01/0x0D" {
				continue
			}
			t.Errorf("%s: %v", f.Signature, err)
			continue
		}
		minimised++
		if len(res.Minimal) > len(f.TriggerPayload) {
			t.Errorf("%s: minimal longer than original", f.Signature)
		}
	}
	if minimised < len(c.Fuzz.Findings)-1 {
		t.Fatalf("minimised only %d of %d findings", minimised, len(c.Fuzz.Findings))
	}
}
