package dongle

import (
	"bytes"
	"testing"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/testbed"
	"zcover/internal/vtime"
)

func TestObserveCollectsScheduledTraffic(t *testing.T) {
	tb, err := testbed.New("D6", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := New(tb.Medium, tb.Region)
	tb.ScheduleTraffic(3, 10*time.Second)
	caps := d.Observe(time.Minute)
	if len(caps) < 6 { // 3 lock reports + 3 switch reports (+ acks)
		t.Fatalf("captured %d frames, want >= 6", len(caps))
	}
	for _, c := range caps {
		if home, _, _, ok := protocol.SniffNetworkInfo(c.Raw); !ok || home != tb.Home() {
			t.Fatalf("capture with wrong home: % X", c.Raw)
		}
	}
}

func TestSendAndObserveClassifiesAckAndResponse(t *testing.T) {
	tb, err := testbed.New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := New(tb.Medium, tb.Region)
	ex, err := d.SendAndObserve(tb.Home(), 0x0F, testbed.ControllerID,
		[]byte{0x86, 0x11}, DefaultResponseWindow)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Acked {
		t.Fatal("controller did not ack")
	}
	if len(ex.Responses) != 1 || ex.Responses[0].CommandClass() != 0x86 {
		t.Fatalf("responses = %v", ex.Responses)
	}
}

func TestPingAliveAndHung(t *testing.T) {
	tb, err := testbed.New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := New(tb.Medium, tb.Region)
	if !d.Ping(tb.Home(), 0x0F, testbed.ControllerID) {
		t.Fatal("live controller did not answer ping")
	}
	// Hang the controller via bug 10 and confirm the ping fails.
	if _, err := d.SendAndObserve(tb.Home(), 0x0F, testbed.ControllerID,
		[]byte{0x86, 0x13, 0xE0}, DefaultResponseWindow); err != nil {
		t.Fatal(err)
	}
	if d.Ping(tb.Home(), 0x0F, testbed.ControllerID) {
		t.Fatal("hung controller answered ping")
	}
	d.Clock().Advance(5 * time.Second)
	if !d.Ping(tb.Home(), 0x0F, testbed.ControllerID) {
		t.Fatal("controller did not recover")
	}
}

func TestSendRawCountsPackets(t *testing.T) {
	m := radio.NewMedium(vtime.NewSimClock())
	d := New(m, radio.RegionUS)
	if err := d.SendRaw(make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	if err := d.SendRaw(make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	if got := d.PacketsSent(); got != 2 {
		t.Fatalf("PacketsSent = %d, want 2", got)
	}
}

func TestObserveReturnsOnlyItsWindowsCaptures(t *testing.T) {
	tb, err := testbed.New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := New(tb.Medium, tb.Region)
	// Traffic before the window and an exchange's frames are not kept.
	if err := tb.Lock.ReportStatus(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SendAndObserve(tb.Home(), 0x0F, testbed.ControllerID,
		[]byte{0x86, 0x11}, DefaultResponseWindow); err != nil {
		t.Fatal(err)
	}
	from := tb.Clock.Now()
	tb.ScheduleTraffic(2, 10*time.Second)
	caps := d.Observe(30 * time.Second)
	if len(caps) < 4 { // 2 lock reports + 2 switch reports (+ acks)
		t.Fatalf("captured %d frames, want >= 4", len(caps))
	}
	for _, c := range caps {
		if c.At.Before(from) {
			t.Fatalf("capture at %v precedes the window starting %v", c.At, from)
		}
	}
	// The window's captures are the caller's: the next frames on the air
	// leave them intact.
	kept := append([]byte(nil), caps[0].Raw...)
	if err := tb.Lock.ReportStatus(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(caps[0].Raw, kept) {
		t.Fatal("a later frame overwrote a returned capture")
	}
	if got := len(d.Observe(time.Second)); got != 0 {
		t.Fatalf("quiet window returned %d captures", got)
	}
}

// TestExchangeSteadyStateAllocs pins the attacker side of the fuzzing
// cycle: once its storage is warm, an exchange that draws an ack and a
// response allocates nothing, and its response holds the bytes sent back.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const home = protocol.HomeID(0xCB95A34A)
	m := radio.NewMedium(vtime.NewSimClock())
	d := New(m, radio.RegionEU)
	peer := m.Attach("peer", radio.RegionEU)
	ack := protocol.NewAckFrame(home, 1, 0x0F, 0).MustEncode()
	reply := protocol.NewDataFrame(home, 1, 0x0F, []byte{0x86, 0x12, 0x03}).MustEncode()
	peer.SetReceiver(func(radio.Capture) {
		_ = peer.Transmit(ack)
		_ = peer.Transmit(reply)
	})
	var ex Exchange
	exchange := func() {
		var err error
		if ex, err = d.SendAndObserve(home, 0x0F, 1, []byte{0x86, 0x11}, DefaultResponseWindow); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Fatalf("exchange allocates %.1f times, want 0", allocs)
	}
	if !ex.Acked || len(ex.Responses) != 1 || !bytes.Equal(ex.Responses[0].Payload, []byte{0x86, 0x12, 0x03}) {
		t.Fatalf("exchange = %+v", ex)
	}
}

func TestSendAndObserveIgnoresOtherNetworks(t *testing.T) {
	tb, err := testbed.New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := New(tb.Medium, tb.Region)
	// A frame for a different home ID gets no ack and no response.
	ex, err := d.SendAndObserve(0x11223344, 0x0F, testbed.ControllerID,
		[]byte{0x86, 0x11}, DefaultResponseWindow)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Acked || len(ex.Responses) != 0 {
		t.Fatalf("foreign-home exchange = %+v", ex)
	}
}
