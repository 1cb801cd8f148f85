package ids

import (
	"strings"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/testbed"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/scan"
)

// trainedMonitor builds a testbed with a monitor trained on two minutes of
// normal traffic.
func trainedMonitor(t *testing.T, index string) (*testbed.Testbed, *Monitor) {
	t.Helper()
	tb, err := testbed.New(index, 3)
	if err != nil {
		t.Fatal(err)
	}
	mon := New(tb.Medium, tb.Region, tb.Home())
	tb.ScheduleTraffic(12, 10*time.Second)
	mon.Train(2*time.Minute + time.Second)
	return tb, mon
}

func TestTrainingLearnsMembership(t *testing.T) {
	_, mon := trainedMonitor(t, "D6")
	known := mon.KnownSources()
	if len(known) != 2 { // lock and switch report; the controller only acks
		t.Fatalf("known sources = %v", known)
	}
	if len(mon.Alerts()) != 0 {
		t.Fatalf("training raised alerts: %v", mon.Alerts())
	}
}

func TestNormalTrafficRaisesNoAlerts(t *testing.T) {
	tb, mon := trainedMonitor(t, "D6")
	tb.ScheduleTraffic(6, 10*time.Second)
	tb.Clock.Advance(time.Minute + time.Second)
	if alerts := mon.Alerts(); len(alerts) != 0 {
		t.Fatalf("false positives on normal traffic: %v", alerts)
	}
}

func TestDetectsFig2MemoryAttack(t *testing.T) {
	tb, mon := trainedMonitor(t, "D6")
	d := dongle.New(tb.Medium, tb.Region)
	if _, err := d.SendAndObserve(tb.Home(), scan.AttackerNodeID, testbed.ControllerID,
		[]byte{0x01, 0x0D, testbed.LockID}, dongle.DefaultResponseWindow); err != nil {
		t.Fatal(err)
	}
	rules := mon.AlertsByRule()
	if rules[RuleUnknownSource] == 0 {
		t.Error("attacker source not flagged")
	}
	if rules[RuleClearTextProtocol] == 0 {
		t.Error("clear-text protocol class not flagged")
	}
	high := 0
	for _, a := range mon.Alerts() {
		if a.Severity == SeverityHigh {
			high++
		}
	}
	if high < 2 {
		t.Fatalf("high-severity alerts = %d, want >= 2", high)
	}
}

func TestDetectsUnknownCommandFromKnownNode(t *testing.T) {
	tb, mon := trainedMonitor(t, "D1")
	d := dongle.New(tb.Medium, tb.Region)
	// Spoof the switch (a trained source) sending a command outside the
	// trained vocabulary.
	if _, err := d.SendAndObserve(tb.Home(), testbed.SwitchID, testbed.ControllerID,
		[]byte{0x7A, 0x01, 0xAA}, dongle.DefaultResponseWindow); err != nil {
		t.Fatal(err)
	}
	rules := mon.AlertsByRule()
	if rules[RuleUnknownCommand] == 0 {
		t.Fatalf("unknown command not flagged: %v", mon.Alerts())
	}
	if rules[RuleUnknownSource] != 0 {
		t.Fatal("known source flagged as unknown")
	}
}

func TestDetectsFloodRateAnomaly(t *testing.T) {
	tb, mon := trainedMonitor(t, "D1")
	d := dongle.New(tb.Medium, tb.Region)
	for i := 0; i < 60; i++ {
		if err := d.Send(tb.Home(), testbed.SwitchID, testbed.ControllerID,
			[]byte{0x25, 0x03, 0x00}); err != nil {
			t.Fatal(err)
		}
		tb.Clock.Advance(100 * time.Millisecond)
	}
	if mon.AlertsByRule()[RuleRateAnomaly] == 0 {
		t.Fatalf("flood not flagged: %v", mon.AlertsByRule())
	}
}

func TestDetectsMalformedFrames(t *testing.T) {
	tb, mon := trainedMonitor(t, "D4")
	trx := tb.Medium.Attach("raw-attacker", tb.Region)
	raw := make([]byte, 16)
	// A frame with the right home ID but a broken LEN/checksum.
	h := tb.Home()
	raw[0], raw[1], raw[2], raw[3] = byte(h>>24), byte(h>>16), byte(h>>8), byte(h)
	raw[7] = 0x3F
	if err := trx.Transmit(raw); err != nil {
		t.Fatal(err)
	}
	if mon.AlertsByRule()[RuleMalformedFrame] == 0 {
		t.Fatalf("malformed frame not flagged: %v", mon.Alerts())
	}
}

func TestIgnoresOtherNetworks(t *testing.T) {
	tb, mon := trainedMonitor(t, "D1")
	d := dongle.New(tb.Medium, tb.Region)
	if err := d.Send(0x12345678, 0x0F, 0x01, []byte{0x01, 0x0D, 0x02}); err != nil {
		t.Fatal(err)
	}
	if len(mon.Alerts()) != 0 {
		t.Fatalf("alerted on a foreign network: %v", mon.Alerts())
	}
	_ = tb
}

func TestFullFuzzingCampaignIsLoudlyVisible(t *testing.T) {
	tb, mon := trainedMonitor(t, "D1")
	job := fleet.Job{Strategy: fuzz.StrategyFull, Budget: 10 * time.Minute, Seed: 1}
	if _, err := harness.Run(tb, job, harness.Options{}); err != nil {
		t.Fatal(err)
	}
	alerts := mon.Alerts()
	if len(alerts) < 100 {
		t.Fatalf("a fuzzing campaign raised only %d alerts", len(alerts))
	}
	rules := mon.AlertsByRule()
	if rules[RuleUnknownSource] == 0 || rules[RuleClearTextProtocol] == 0 {
		t.Fatalf("campaign rules fired: %v", rules)
	}
}

func TestResetKeepsModel(t *testing.T) {
	tb, mon := trainedMonitor(t, "D1")
	d := dongle.New(tb.Medium, tb.Region)
	if err := d.Send(tb.Home(), scan.AttackerNodeID, testbed.ControllerID, []byte{0x01, 0x0D, 0x02}); err != nil {
		t.Fatal(err)
	}
	if len(mon.Alerts()) == 0 {
		t.Fatal("no alerts before reset")
	}
	mon.Reset()
	if len(mon.Alerts()) != 0 {
		t.Fatal("reset kept alerts")
	}
	if len(mon.KnownSources()) == 0 {
		t.Fatal("reset dropped the trained model")
	}
}

func TestStringers(t *testing.T) {
	a := Alert{Rule: RuleClearTextProtocol, Severity: SeverityHigh, Src: 0x0F, Detail: "x"}
	s := a.String()
	for _, want := range []string{"high", "cleartext-protocol-class", "15"} {
		if !strings.Contains(s, want) {
			t.Errorf("alert string %q missing %q", s, want)
		}
	}
	if !strings.Contains(Rule(42).String(), "42") || !strings.Contains(Severity(42).String(), "42") {
		t.Error("unknown enum stringers should embed the value")
	}
}
