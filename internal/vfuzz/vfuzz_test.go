package vfuzz

import (
	"testing"
	"time"

	"zcover/internal/oracle"
	"zcover/internal/protocol"
	"zcover/internal/testbed"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/fuzz"
)

// mustNew builds a VFuzz engine with the given seed and budget.
func mustNew(t *testing.T, d *dongle.Dongle, home protocol.HomeID, seed int64, budget time.Duration) *Engine {
	t.Helper()
	eng, err := New(d, home, testbed.ControllerID, seed, fuzz.Config{Duration: budget})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newVFuzzRig(t *testing.T, index string, seed int64) (*Engine, *testbed.Testbed) {
	t.Helper()
	tb, err := testbed.New(index, seed)
	if err != nil {
		t.Fatal(err)
	}
	d := dongle.New(tb.Medium, tb.Region)
	eng := mustNew(t, d, tb.Home(), seed, time.Hour)
	tb.Bus.Subscribe(eng.Observe)
	return eng, tb
}

func TestVFuzzFindsMACBugOnAffectedDevice(t *testing.T) {
	eng, _ := newVFuzzRig(t, "D1", 1)
	res := eng.Run()
	if len(res.Findings) != 1 {
		t.Fatalf("D1 findings = %d, want 1 (Table V)", len(res.Findings))
	}
	f := res.Findings[0]
	if f.Event.Kind != oracle.MACParsingFault {
		t.Fatalf("finding = %+v, want MAC parsing fault", f.Event)
	}
	if res.ClassesCovered != 256 || res.CommandsCovered != 256 {
		t.Fatalf("coverage = %d/%d, want 256/256 (Table V)", res.ClassesCovered, res.CommandsCovered)
	}
}

func TestVFuzzFindsNothingOnCleanDevice(t *testing.T) {
	eng, _ := newVFuzzRig(t, "D3", 1)
	res := eng.Run()
	for _, f := range res.Findings {
		if f.Event.Kind == oracle.MACParsingFault {
			t.Fatalf("D3 has no MAC bugs but VFuzz found %s", f.Signature)
		}
	}
}

func TestVFuzzNeverFindsApplicationLayerBugsInOneHour(t *testing.T) {
	// The disjointness claim of §IV-C: VFuzz's random payloads almost
	// never form the structured application commands ZCover's bugs need.
	for _, seed := range []int64{1, 2, 3} {
		eng, _ := newVFuzzRig(t, "D4", seed)
		res := eng.Run()
		for _, f := range res.Findings {
			if f.Event.Kind != oracle.MACParsingFault {
				t.Errorf("seed %d: app-layer finding %s", seed, f.Signature)
			}
		}
	}
}

func TestVFuzzFrameMutationsAreMACFocused(t *testing.T) {
	tb, err := testbed.New("D3", 9)
	if err != nil {
		t.Fatal(err)
	}
	d := dongle.New(tb.Medium, tb.Region)
	eng := mustNew(t, d, tb.Home(), 9, time.Hour)

	clean := protocol.NewDataFrame(tb.Home(), 0x0F, testbed.ControllerID, []byte{0, 0}).MustEncode()
	mutatedHeaders := 0
	undecodable := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		raw := eng.nextFrame()
		if len(raw) >= protocol.HeaderSize {
			for pos := 0; pos < protocol.HeaderSize && pos < len(clean); pos++ {
				if pos == 7 { // LEN varies with payload length legitimately
					continue
				}
				if raw[pos] != clean[pos] {
					mutatedHeaders++
					break
				}
			}
		}
		if _, err := protocol.Decode(raw, protocol.ChecksumCS8); err != nil {
			undecodable++
		}
	}
	if mutatedHeaders < trials/2 {
		t.Errorf("only %d/%d frames had mutated MAC headers", mutatedHeaders, trials)
	}
	// Most frames are broken at the MAC level — the paper's explanation
	// for VFuzz's poor application-layer reach.
	if undecodable < trials/2 {
		t.Errorf("only %d/%d frames undecodable", undecodable, trials)
	}
}

func TestVFuzzFramesNeverExceedMACLimit(t *testing.T) {
	tb, err := testbed.New("D1", 10)
	if err != nil {
		t.Fatal(err)
	}
	d := dongle.New(tb.Medium, tb.Region)
	eng := mustNew(t, d, tb.Home(), 10, time.Hour)
	for i := 0; i < 5000; i++ {
		if raw := eng.nextFrame(); len(raw) > protocol.MaxFrameSize {
			t.Fatalf("frame %d is %d bytes", i, len(raw))
		}
	}
}

func TestVFuzzRespectsBudget(t *testing.T) {
	eng, _ := newVFuzzRig(t, "D5", 2)
	res := eng.Run()
	if res.Elapsed < time.Hour || res.Elapsed > time.Hour+5*time.Minute {
		t.Fatalf("elapsed = %s", res.Elapsed)
	}
	if res.PacketsSent < 1000 {
		t.Fatalf("packets = %d, suspiciously few", res.PacketsSent)
	}
	if res.Strategy != StrategyVFuzz {
		t.Fatalf("strategy = %s", res.Strategy)
	}
}
