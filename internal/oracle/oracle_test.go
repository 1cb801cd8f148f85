package oracle

import (
	"strings"
	"testing"
	"time"

	"zcover/internal/coverage"
	"zcover/internal/vtime"
)

func TestBusEmitAndEvents(t *testing.T) {
	var b Bus
	e := Event{At: vtime.SimEpoch, Device: "D1", Kind: NodeRemoved, Class: 0x01, Cmd: 0x0D}
	b.Emit(e)
	got := b.Events()
	if len(got) != 1 || got[0].Kind != NodeRemoved {
		t.Fatalf("Events = %v", got)
	}
}

func TestBusSubscribeReceivesSubsequentEvents(t *testing.T) {
	var b Bus
	b.Emit(Event{Kind: AppDoS}) // before subscription: not delivered
	var seen []Kind
	b.Subscribe(func(e Event) { seen = append(seen, e.Kind) })
	b.Emit(Event{Kind: HostCrash})
	b.Emit(Event{Kind: ServiceHang})
	if len(seen) != 2 || seen[0] != HostCrash || seen[1] != ServiceHang {
		t.Fatalf("subscriber saw %v", seen)
	}
	if len(b.Events()) != 3 {
		t.Fatalf("bus recorded %d events, want 3", len(b.Events()))
	}
}

func TestBusSubscribeNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe(nil) did not panic")
		}
	}()
	(&Bus{}).Subscribe(nil)
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	var b Bus
	var first, second []Kind
	s1 := b.Subscribe(func(e Event) { first = append(first, e.Kind) })
	s2 := b.Subscribe(func(e Event) { second = append(second, e.Kind) })
	if b.Subscribers() != 2 {
		t.Fatalf("Subscribers = %d, want 2", b.Subscribers())
	}
	b.Emit(Event{Kind: HostCrash})
	s1.Unsubscribe()
	b.Emit(Event{Kind: ServiceHang})
	if len(first) != 1 || first[0] != HostCrash {
		t.Errorf("unsubscribed callback saw %v", first)
	}
	if len(second) != 2 {
		t.Errorf("remaining subscriber saw %v, want both events", second)
	}
	if b.Subscribers() != 1 {
		t.Errorf("Subscribers = %d after unsubscribe, want 1", b.Subscribers())
	}
	s2.Unsubscribe()
	if b.Subscribers() != 0 {
		t.Errorf("Subscribers = %d, want 0", b.Subscribers())
	}
}

// TestSubscriptionChangesDuringFanOut pins the bus's delivery rule when a
// callback changes the subscriber set mid-emit: the event in flight still
// reaches every callback attached when it was emitted, and only the next
// event sees the change.
func TestSubscriptionChangesDuringFanOut(t *testing.T) {
	var b Bus
	var got []string
	var subB *Subscription
	b.Subscribe(func(e Event) {
		got = append(got, "a")
		if e.Kind == NodeRemoved {
			subB.Unsubscribe()
			b.Subscribe(func(Event) { got = append(got, "d") })
		}
	})
	subB = b.Subscribe(func(Event) { got = append(got, "b") })
	b.Subscribe(func(Event) { got = append(got, "c") })
	b.Emit(Event{Kind: NodeRemoved})
	b.Emit(Event{Kind: HostCrash})
	if want := "a b c a c d"; strings.Join(got, " ") != want {
		t.Fatalf("deliveries = %v, want %s", got, want)
	}
}

func TestUnsubscribeIdempotentAndNilSafe(t *testing.T) {
	var b Bus
	n := 0
	s := b.Subscribe(func(Event) { n++ })
	other := b.Subscribe(func(Event) {})
	s.Unsubscribe()
	s.Unsubscribe() // second call is a no-op, must not drop `other`
	var nilSub *Subscription
	nilSub.Unsubscribe()
	if b.Subscribers() != 1 {
		t.Fatalf("Subscribers = %d, want 1 (double-unsubscribe removed a stranger)", b.Subscribers())
	}
	b.Emit(Event{Kind: AppDoS})
	if n != 0 {
		t.Fatal("unsubscribed callback still delivered")
	}
	_ = other
}

func TestSignatureDistinguishesTableIIIBugs(t *testing.T) {
	// Bugs 01-04 and 12 share CMDCL 0x01 / CMD 0x0D but differ by effect;
	// bugs 08 and 11 share kind and class but differ by command.
	events := []Event{
		{Kind: NodeTampered, Class: 0x01, Cmd: 0x0D},
		{Kind: RogueNodeAdded, Class: 0x01, Cmd: 0x0D},
		{Kind: NodeRemoved, Class: 0x01, Cmd: 0x0D},
		{Kind: DatabaseOverwritten, Class: 0x01, Cmd: 0x0D},
		{Kind: WakeupCleared, Class: 0x01, Cmd: 0x0D},
		{Kind: ServiceHang, Class: 0x59, Cmd: 0x03},
		{Kind: ServiceHang, Class: 0x59, Cmd: 0x05},
	}
	seen := make(map[string]bool)
	for _, e := range events {
		sig := e.Signature()
		if seen[sig] {
			t.Fatalf("duplicate signature %q", sig)
		}
		seen[sig] = true
	}
}

func TestUniqueSignaturesDedupsAndPreservesOrder(t *testing.T) {
	var b Bus
	b.Emit(Event{Kind: ServiceHang, Class: 0x5A, Cmd: 0x01})
	b.Emit(Event{Kind: ServiceHang, Class: 0x5A, Cmd: 0x01}) // duplicate
	b.Emit(Event{Kind: HostCrash, Class: 0x9F, Cmd: 0x01})
	sigs := b.UniqueSignatures()
	if len(sigs) != 2 {
		t.Fatalf("unique signatures = %v", sigs)
	}
	if !strings.Contains(sigs[0], "service-hang") || !strings.Contains(sigs[1], "host-crash") {
		t.Fatalf("order not preserved: %v", sigs)
	}
}

func TestResetClearsEventsKeepsSubscribers(t *testing.T) {
	var b Bus
	n := 0
	b.Subscribe(func(Event) { n++ })
	b.Emit(Event{Kind: AppDoS})
	b.Reset()
	if len(b.Events()) != 0 {
		t.Fatal("Reset left events")
	}
	b.Emit(Event{Kind: AppDoS})
	if n != 2 {
		t.Fatalf("subscriber called %d times, want 2", n)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		NodeTampered:        "node-tampered",
		RogueNodeAdded:      "rogue-node-added",
		NodeRemoved:         "node-removed",
		DatabaseOverwritten: "database-overwritten",
		AppDoS:              "app-dos",
		HostCrash:           "host-crash",
		HostDoS:             "host-dos",
		ServiceHang:         "service-hang",
		WakeupCleared:       "wakeup-cleared",
		MACParsingFault:     "mac-parsing-fault",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(77).String(), "77") {
		t.Error("unknown kind should embed value")
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		At:       vtime.SimEpoch,
		Device:   "D4",
		Kind:     ServiceHang,
		Class:    0x86,
		Cmd:      0x13,
		Duration: 4 * time.Second,
		Detail:   "version get flood",
	}
	s := e.String()
	for _, want := range []string{"D4", "service-hang", "0x86", "0x13", "4s", "version get flood"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q missing %q", s, want)
		}
	}
}

func TestConfidenceStrings(t *testing.T) {
	if s := ConfidenceConfirmed.String(); s != "confirmed" {
		t.Errorf("confirmed = %q", s)
	}
	if s := ConfidenceSuspect.String(); s != "suspect" {
		t.Errorf("suspect = %q", s)
	}
	if s := Confidence(9).String(); s != "Confidence(9)" {
		t.Errorf("unknown = %q", s)
	}
}

func TestBusCoverageHookObservesEmits(t *testing.T) {
	var b Bus
	cov := coverage.NewCollector()
	b.SetCoverage(cov)
	cov.BeginInput()
	b.Emit(Event{Device: "D1", Kind: ServiceHang, Class: 0x86, Cmd: 0x13})
	if n := cov.EndInput(); n == 0 {
		t.Fatal("emitted event produced no coverage feature")
	}

	// The same event again is not novel; a different kind is.
	cov.BeginInput()
	b.Emit(Event{Device: "D1", Kind: ServiceHang, Class: 0x86, Cmd: 0x13})
	if n := cov.EndInput(); n != 0 {
		t.Fatalf("repeat event reported %d new features", n)
	}
	cov.BeginInput()
	b.Emit(Event{Device: "D1", Kind: NodeTampered, Class: 0x01, Cmd: 0x0D})
	if n := cov.EndInput(); n == 0 {
		t.Fatal("distinct event kind reported no new feature")
	}

	// Detaching stops observation without touching subscribers.
	b.SetCoverage(nil)
	before := cov.Inputs()
	cov.BeginInput()
	b.Emit(Event{Device: "D1", Kind: MACParsingFault})
	cov.EndInput()
	if cov.Inputs() != before+1 {
		t.Fatal("collector input accounting broken")
	}
	if len(b.Events()) != 4 {
		t.Fatalf("events = %d, want 4", len(b.Events()))
	}
}
