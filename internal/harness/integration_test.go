package harness

import (
	"strings"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/ids"
	"zcover/internal/oracle"
	"zcover/internal/serialapi"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// TestGrandIntegration runs one campaign with every observer attached at
// once — the IDS on the air, the PC Controller program on the serial port,
// the oracle on the bus — and cross-checks that their views agree.
func TestGrandIntegration(t *testing.T) {
	tb, err := testbed.New("D2", 90)
	if err != nil {
		t.Fatal(err)
	}

	// Defender's monitor, trained on normal traffic before the attack.
	monitor := ids.New(tb.Medium, tb.Region, tb.Home())
	tb.ScheduleTraffic(12, 10*time.Second)
	monitor.Train(2*time.Minute + time.Second)

	// Operator's host program, reading chip memory over the Serial API.
	pc := serialapi.NewPCController(tb.Controller)
	before, err := pc.RenderTable()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before, "Door Lock") {
		t.Fatalf("pristine view:\n%s", before)
	}

	// The attack campaign.
	out, err := Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: time.Hour, Seed: 90}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := out.Campaign
	if len(c.Fuzz.Findings) < 12 {
		t.Fatalf("campaign found %d bugs", len(c.Fuzz.Findings))
	}

	// 1. Oracle and campaign agree on the unique signatures.
	oracleSigs := map[string]bool{}
	for _, e := range tb.Bus.Events() {
		oracleSigs[e.Signature()] = true
	}
	for _, f := range c.Fuzz.Findings {
		if !oracleSigs[f.Signature] {
			t.Errorf("finding %s missing from the oracle log", f.Signature)
		}
	}

	// 2. The serial view shows the memory damage the oracle reported.
	after, err := pc.RenderTable()
	if err != nil {
		t.Fatal(err)
	}
	sawOverwrite := false
	for _, e := range tb.Bus.Events() {
		if e.Kind == oracle.DatabaseOverwritten {
			sawOverwrite = true
		}
	}
	if sawOverwrite && !strings.Contains(after, "200") {
		t.Errorf("oracle reported an overwrite the serial view does not show:\n%s", after)
	}

	// 3. The IDS saw the campaign loudly: every clear-text hidden-class
	// attack the oracle confirmed must have at least one matching alert.
	rules := monitor.AlertsByRule()
	if rules[ids.RuleClearTextProtocol] == 0 {
		t.Error("IDS missed the hidden-class traffic")
	}
	if rules[ids.RuleUnknownSource] == 0 {
		t.Error("IDS missed the attacker's spoofed source")
	}
	if len(monitor.Alerts()) < len(c.Fuzz.Findings) {
		t.Errorf("IDS raised %d alerts for %d findings", len(monitor.Alerts()), len(c.Fuzz.Findings))
	}

	// 4. Host health matches the oracle's host-level findings.
	hostHit := false
	for _, e := range tb.Bus.Events() {
		if e.Kind == oracle.HostCrash || e.Kind == oracle.HostDoS {
			hostHit = true
		}
	}
	if hostHit == tb.Controller.Host().Healthy() {
		t.Errorf("host health %v inconsistent with oracle (hostHit=%v)",
			tb.Controller.Host().Healthy(), hostHit)
	}
}
