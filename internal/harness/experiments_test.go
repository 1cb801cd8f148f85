package harness

import (
	"strings"
	"testing"
	"time"

	"zcover/internal/controller"
	"zcover/internal/fleet"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

func TestFig1FrameDissection(t *testing.T) {
	tb := Fig1()
	out := tb.String()
	for _, want := range []string{"H-ID", "CB 95 A3 4A", "CMDCL", "20", "PARAM1", "FF"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5SeriesMatchesPaper(t *testing.T) {
	_, csv, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"23", "15", "11", "10", "8", "7", "6", "6", "5", "4", "3", "2", "2", "1", "1", "0"}
	if len(csv.Rows) != len(want) {
		t.Fatalf("Fig5 has %d bars, want %d", len(csv.Rows), len(want))
	}
	for i, row := range csv.Rows {
		if row[1] != want[i] {
			t.Errorf("bar %d (%s) = %s commands, paper shows %s", i, row[0], row[1], want[i])
		}
	}
}

func TestTable2Inventory(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 9 {
		t.Fatalf("Table II lists %d devices, want 9", len(tb.Rows))
	}
	out := tb.String()
	for _, want := range []string{"ZooZ", "Aeotec", "Samsung", "Schlage", "GE Jasco", "ZST10", "BE469ZP"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestTable4MatchesPaperExactly(t *testing.T) {
	_, rows, err := Table4(fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		home           string
		known, unknown int
	}{
		"D1": {"E7DE3F3D", 17, 28},
		"D2": {"CD007171", 17, 28},
		"D3": {"CB51722D", 15, 30},
		"D4": {"C7E9DD54", 17, 28},
		"D5": {"F4C3754D", 15, 30},
		"D6": {"CB95A34A", 17, 28},
		"D7": {"EDC87EE4", 15, 30},
	}
	if len(rows) != 7 {
		t.Fatalf("Table IV has %d rows", len(rows))
	}
	for _, r := range rows {
		w := want[r.Index]
		if r.Home != w.home {
			t.Errorf("%s home = %s, want %s", r.Index, r.Home, w.home)
		}
		if r.NodeID != "0x01" {
			t.Errorf("%s node = %s, want 0x01", r.Index, r.NodeID)
		}
		if r.Known != w.known || r.Unknown != w.unknown {
			t.Errorf("%s known/unknown = %d/%d, want %d/%d",
				r.Index, r.Known, r.Unknown, w.known, w.unknown)
		}
		if r.Commands != 53 {
			t.Errorf("%s validated commands = %d, want 53", r.Index, r.Commands)
		}
	}
}

func TestTable6AblationMatchesPaperShape(t *testing.T) {
	_, rows, err := Table6(time.Hour, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("ablation has %d rows", len(rows))
	}
	// Paper: full=15 (across the full Table III catalogue; 14 of those
	// manifest on the ZooZ per its affected-devices column), β=8, γ=6.
	if rows[0].Vulns != 14 {
		t.Errorf("full config found %d, want 14 (all ZooZ bugs)", rows[0].Vulns)
	}
	if rows[1].Vulns != 8 {
		t.Errorf("beta config found %d, want 8", rows[1].Vulns)
	}
	if rows[2].Vulns != 6 {
		t.Errorf("gamma config found %d, want 6", rows[2].Vulns)
	}
	if !(rows[0].Vulns > rows[1].Vulns && rows[1].Vulns > rows[2].Vulns) {
		t.Error("ablation ordering full > beta > gamma violated")
	}
}

func TestTable3FullCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("24h-per-device campaign; run without -short")
	}
	_, res, err := Table3(24*time.Hour, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unmatched) > 0 {
		t.Fatalf("signatures outside the Table III catalogue: %v", res.Unmatched)
	}
	// Every Table III bug must be rediscovered on exactly its affected set.
	wantDevices := map[controller.BugID][]string{}
	for _, p := range controller.Profiles() {
		for _, b := range p.Bugs {
			wantDevices[b] = append(wantDevices[b], p.Index)
		}
	}
	for _, bug := range PaperBugs() {
		got := res.Affected[bug.ID]
		want := wantDevices[bug.ID]
		if len(got) != len(want) {
			t.Errorf("bug %02d rediscovered on %v, want %v", bug.ID, got, want)
		}
	}
	// Union = the paper's headline 15 zero-days.
	if got := len(res.Affected); got != 15 {
		t.Errorf("union of unique vulnerabilities = %d, want 15", got)
	}
}

func TestTable5ComparisonMatchesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("24h-per-device comparison; run without -short")
	}
	_, rows, err := Table5(24*time.Hour, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantVFuzz := map[string]int{"D1": 1, "D2": 3, "D3": 0, "D4": 4, "D5": 0}
	for _, r := range rows {
		if r.VFuzzClasses != 256 || r.VFuzzCommands != 256 {
			t.Errorf("%s VFuzz coverage %d/%d, want 256/256", r.Index, r.VFuzzClasses, r.VFuzzCommands)
		}
		if r.ZCoverClasses != 45 || r.ZCoverCmds != 53 {
			t.Errorf("%s ZCover coverage %d/%d, want 45/53", r.Index, r.ZCoverClasses, r.ZCoverCmds)
		}
		if r.VFuzzVulns != wantVFuzz[r.Index] {
			t.Errorf("%s VFuzz found %d, want %d", r.Index, r.VFuzzVulns, wantVFuzz[r.Index])
		}
		if r.ZCoverVulns != 14 {
			t.Errorf("%s ZCover found %d, want 14", r.Index, r.ZCoverVulns)
		}
		if r.ZCoverVulns <= r.VFuzzVulns {
			t.Errorf("%s: ZCover (%d) must dominate VFuzz (%d)", r.Index, r.ZCoverVulns, r.VFuzzVulns)
		}
		if r.Overlap != 0 {
			t.Errorf("%s: %d common vulnerabilities, paper found none", r.Index, r.Overlap)
		}
	}
}

func TestFig12TimelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("24h campaigns; run without -short")
	}
	csvs, series, err := Fig12(24*time.Hour, 800*time.Second, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 || len(csvs) != 4 {
		t.Fatalf("Fig12 covers %d devices, want 4", len(series))
	}
	for _, s := range series {
		if len(s.Samples) == 0 {
			t.Errorf("%s: empty timeline", s.Index)
			continue
		}
		early := 0
		for _, f := range s.Discoveries {
			if f.Elapsed <= 800*time.Second {
				early++
			}
		}
		// The paper's point: discoveries cluster in the initial phase.
		if early < 5 {
			t.Errorf("%s: only %d discoveries within the first 800 s", s.Index, early)
		}
		if len(s.Discoveries) != 14 {
			t.Errorf("%s: %d total discoveries, want 14", s.Index, len(s.Discoveries))
		}
		last := s.Samples[len(s.Samples)-1]
		// Paper Fig 12 shows up to ~1000 packets in the first 800 s.
		if last.Packets < 100 || last.Packets > 1500 {
			t.Errorf("%s: %d packets at the window edge, outside the paper's range", s.Index, last.Packets)
		}
	}
}

func TestRunZCoverRejectsBadInputs(t *testing.T) {
	tb, err := testbed.New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	beta := fleet.Job{Device: "D1", Strategy: fuzz.StrategyKnownOnly, Budget: time.Minute, Seed: 1}
	bad := []struct {
		name string
		job  fleet.Job
		opts Options
	}{
		{"unknown fuzz mode", fleet.Job{Device: "D1", Strategy: fuzz.StrategyFull, FuzzMode: "afl"}, Options{}},
		{"testbed mismatch", fleet.Job{Device: "D2", Strategy: fuzz.StrategyFull}, Options{}},
		{"corpus without coverage", beta, Options{CorpusDir: t.TempDir()}},
	}
	for _, tc := range bad {
		if _, err := Run(tb, tc.job, tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The testbed schedules its own traffic, so a fresh one needs no
	// warm-up: exercise the success path cheaply.
	out, err := Run(tb, beta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := out.Campaign; c.Fuzz.ClassesCovered != 17 {
		t.Fatalf("beta queue = %d classes", c.Fuzz.ClassesCovered)
	}
}

func TestCatalogSignaturesUnique(t *testing.T) {
	bugs := PaperBugs()
	if len(bugs) != 15 {
		t.Fatalf("catalogue has %d bugs, want 15", len(bugs))
	}
	seen := map[string]bool{}
	for _, b := range bugs {
		if seen[b.Signature] {
			t.Errorf("duplicate signature %s", b.Signature)
		}
		seen[b.Signature] = true
		if got, ok := BugBySignature(b.Signature); !ok || got.ID != b.ID {
			t.Errorf("BugBySignature(%s) = %v, %v", b.Signature, got.ID, ok)
		}
	}
	if _, ok := BugBySignature("nope"); ok {
		t.Error("BugBySignature accepted an unknown signature")
	}
}
