package harness

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// catalogEntries converts the canonical PoC catalogue into log entries.
func catalogEntries() []fuzz.LogEntry {
	var out []fuzz.LogEntry
	for _, b := range PaperBugs() {
		out = append(out, fuzz.LogEntry{
			Device:    b.PoCDevice,
			Signature: b.Signature,
			Class:     b.CMDCL,
			Cmd:       b.CMD,
			Payload:   hex.EncodeToString(b.PoCPayload),
		})
	}
	return out
}

func TestAll15CanonicalPoCsReproduce(t *testing.T) {
	results, err := VerifyPoCs(catalogEntries(), 61)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 15 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !r.Reproduced {
			t.Errorf("PoC for %s did not reproduce on %s (observed %v, payload %s)",
				r.Entry.Signature, r.Entry.Device, r.Observed, r.Entry.Payload)
		}
	}
}

func TestPoCsAreSinglePacket(t *testing.T) {
	for _, b := range PaperBugs() {
		if len(b.PoCPayload) == 0 || len(b.PoCPayload) > 12 {
			t.Errorf("bug %02d PoC payload has %d bytes", b.ID, len(b.PoCPayload))
		}
		if b.PoCPayload[0] != b.CMDCL {
			t.Errorf("bug %02d PoC targets class 0x%02X, catalogue says 0x%02X",
				b.ID, b.PoCPayload[0], b.CMDCL)
		}
	}
}

func TestBugLogRoundTripAndReplay(t *testing.T) {
	tb, err := testbed.New("D1", 62)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: 30 * time.Minute, Seed: 62}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := out.Campaign
	if len(c.Fuzz.Findings) == 0 {
		t.Fatal("campaign found nothing")
	}

	var buf bytes.Buffer
	if err := fuzz.WriteLog(&buf, c.Fuzz); err != nil {
		t.Fatal(err)
	}
	entries, err := fuzz.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(c.Fuzz.Findings) {
		t.Fatalf("log round trip: %d entries, %d findings", len(entries), len(c.Fuzz.Findings))
	}
	for i, e := range entries {
		payload, err := e.TriggerPayload()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, c.Fuzz.Findings[i].TriggerPayload) {
			t.Fatalf("entry %d payload mismatch", i)
		}
	}

	// Replaying the campaign's own triggers on a fresh device reproduces
	// almost everything; the rogue-insertion trigger is state-dependent
	// (its node ID existed mid-campaign but not on a fresh table), which
	// is exactly why the paper crafts PoCs manually after fuzzing.
	results, err := VerifyPoCs(entries, 63)
	if err != nil {
		t.Fatal(err)
	}
	reproduced := 0
	for _, r := range results {
		if r.Reproduced {
			reproduced++
		}
	}
	if reproduced < len(results)-2 {
		t.Fatalf("only %d/%d campaign triggers reproduced", reproduced, len(results))
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := fuzz.ReadLog(bytes.NewBufferString("{not json\n")); err == nil {
		t.Fatal("accepted malformed log")
	}
	entries, err := fuzz.ReadLog(bytes.NewBufferString(""))
	if err != nil || len(entries) != 0 {
		t.Fatalf("empty log: %v, %v", entries, err)
	}
	if _, err := (fuzz.LogEntry{Payload: "zz"}).TriggerPayload(); err == nil {
		t.Fatal("accepted bad hex payload")
	}
}
