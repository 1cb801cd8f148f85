package zcover_test

import (
	"testing"
	"time"

	"zcover"
)

func TestPublicAPIQuickCampaign(t *testing.T) {
	tb, err := zcover.NewTestbed("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := zcover.Run(tb, zcover.FleetJob{Strategy: zcover.StrategyFull, Budget: 30 * time.Minute, Seed: 1}, zcover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := out.Campaign
	if c.Fingerprint.Home.String() != "E7DE3F3D" {
		t.Errorf("fingerprinted home %s", c.Fingerprint.Home)
	}
	if len(c.Fuzz.Findings) < 8 {
		t.Errorf("30-minute campaign found %d bugs, want >= 8", len(c.Fuzz.Findings))
	}
	for _, f := range c.Fuzz.Findings {
		if _, ok := findInCatalog(f.Signature); !ok {
			t.Errorf("finding %s not in the paper catalogue", f.Signature)
		}
	}
}

func findInCatalog(sig string) (zcover.PaperBug, bool) {
	for _, b := range zcover.PaperBugs() {
		if b.Signature == sig {
			return b, true
		}
	}
	return zcover.PaperBug{}, false
}

func TestPublicAPIBaseline(t *testing.T) {
	tb, err := zcover.NewTestbed("D4", 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := zcover.Run(tb, zcover.FleetJob{Baseline: true, Budget: time.Hour, Seed: 2}, zcover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Baseline; res.ClassesCovered != 256 {
		t.Errorf("baseline coverage = %d", res.ClassesCovered)
	}
}

func TestPublicAPICatalog(t *testing.T) {
	if got := len(zcover.PaperBugs()); got != 15 {
		t.Fatalf("catalogue = %d bugs, want 15", got)
	}
}

// TestPublicAPIResumableCampaign: the checkpointed single-campaign entry
// point journals a fresh run and replays it on resume with identical
// findings.
func TestPublicAPIResumableCampaign(t *testing.T) {
	dir := t.TempDir()
	key := zcover.CampaignKey{
		Target: "D1", Strategy: zcover.StrategyFull, Duration: 2 * time.Minute, Seed: 41,
	}
	tb, err := zcover.NewTestbed("D1", 41)
	if err != nil {
		t.Fatal(err)
	}
	c1, resumed, err := zcover.RunResumable(dir, false, key, tb, zcover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("fresh campaign claimed to be resumed")
	}
	tb2, err := zcover.NewTestbed("D1", 41)
	if err != nil {
		t.Fatal(err)
	}
	c2, resumed, err := zcover.RunResumable(dir, true, key, tb2, zcover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("journaled campaign re-ran instead of replaying")
	}
	if len(c1.Fuzz.Findings) != len(c2.Fuzz.Findings) || c1.Fuzz.PacketsSent != c2.Fuzz.PacketsSent {
		t.Errorf("replay diverged: %d/%d findings, %d/%d packets",
			len(c1.Fuzz.Findings), len(c2.Fuzz.Findings), c1.Fuzz.PacketsSent, c2.Fuzz.PacketsSent)
	}
}

func TestPublicAPIExperimentDrivers(t *testing.T) {
	if tbl := zcover.Fig1(); len(tbl.Rows) == 0 {
		t.Error("Fig1 empty")
	}
	if _, csv, err := zcover.Fig5(); err != nil || len(csv.Rows) != 16 {
		t.Errorf("Fig5 = %v rows, err %v", csv, err)
	}
	if tbl := zcover.Table2(); len(tbl.Rows) != 9 {
		t.Error("Table2 wrong size")
	}
}
