package testbed

import (
	"reflect"
	"testing"
	"time"

	"zcover/internal/chaos"
	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/security"
	"zcover/internal/telemetry"
)

func TestNewBuildsAllSevenTestbeds(t *testing.T) {
	for _, idx := range []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7"} {
		tb, err := New(idx, 1)
		if err != nil {
			t.Fatalf("%s: %v", idx, err)
		}
		if tb.Controller.Profile().Index != idx {
			t.Errorf("%s: wrong profile", idx)
		}
		if tb.Controller.Table().Len() != 3 {
			t.Errorf("%s: node table = %v", idx, tb.Controller.Table().IDs())
		}
	}
}

func TestNewRejectsUnknownProfile(t *testing.T) {
	if _, err := New("D9", 1); err == nil {
		t.Fatal("accepted a slave index as a controller profile")
	}
}

func TestLockIsPairedWithController(t *testing.T) {
	tb, err := New("D6", 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, ok := tb.Controller.Session(LockID)
	if !ok {
		t.Fatal("controller has no S2 session for the lock")
	}
	// Controller -> lock secured unlock round-trips through the real air.
	h := tb.Home()
	aad := []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h), ControllerID, LockID}
	encap, err := sess.Encapsulate(security.FlowAtoB, aad,
		[]byte{0x62, 0x01, 0x00}) // DOOR_LOCK_OPERATION_SET unsecured
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Controller.Node().Send(LockID, encap); err != nil {
		t.Fatal(err)
	}
	if tb.Lock.Mode() != 0x00 {
		t.Fatal("secured unlock did not reach the lock")
	}
}

func TestLockWakeupIntervalRegistered(t *testing.T) {
	tb, err := New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Controller.WakeupInterval(LockID); got != time.Hour {
		t.Fatalf("lock wakeup interval = %s, want 1h", got)
	}
	rec, ok := tb.Controller.Table().Get(LockID)
	if !ok || rec.WakeupInterval != time.Hour {
		t.Fatalf("lock record = %+v", rec)
	}
}

func TestGenerateTrafficVisibleToSniffer(t *testing.T) {
	tb, err := New("D4", 2)
	if err != nil {
		t.Fatal(err)
	}
	sniffer := radio.NewSniffer(tb.Medium, tb.Region, 0)
	if err := tb.GenerateTraffic(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	nets := sniffer.Networks()
	nodes := nets[tb.Home()]
	if len(nodes) != 3 {
		t.Fatalf("sniffer saw nodes %v, want controller+lock+switch", nodes)
	}
}

func TestScheduleTrafficFiresOnClockAdvance(t *testing.T) {
	tb, err := New("D2", 2)
	if err != nil {
		t.Fatal(err)
	}
	sniffer := radio.NewSniffer(tb.Medium, tb.Region, 0)
	tb.ScheduleTraffic(4, 5*time.Second)
	if got := len(sniffer.Captures()); got != 0 {
		t.Fatalf("traffic fired before the clock advanced: %d captures", got)
	}
	tb.Clock.Advance(30 * time.Second)
	if got := len(sniffer.Captures()); got < 8 {
		t.Fatalf("captured %d frames after advancing, want >= 8", got)
	}
}

func TestResetRestoresControllerAndOracle(t *testing.T) {
	tb, err := New("D5", 4)
	if err != nil {
		t.Fatal(err)
	}
	attacker := tb.Medium.Attach("attacker", tb.Region)
	raw := protocol.NewDataFrame(tb.Home(), 0x0F, ControllerID, []byte{0x01, 0x0D, 0xFF}).MustEncode()
	if err := attacker.Transmit(raw); err != nil {
		t.Fatal(err)
	}
	if _, lockStillThere := tb.Controller.Table().Get(LockID); lockStillThere || len(tb.Bus.Events()) == 0 {
		t.Fatal("attack did not land")
	}
	tb.Reset()
	if _, ok := tb.Controller.Table().Get(LockID); !ok || tb.Controller.Table().Len() != 3 {
		t.Fatal("reset did not restore the table")
	}
	if len(tb.Bus.Events()) != 0 {
		t.Fatal("reset did not clear the oracle")
	}
}

func TestHiddenClassDefinitions(t *testing.T) {
	defs := HiddenClassDefinitions()
	if len(defs) != 2 {
		t.Fatalf("hidden definitions = %d, want 2", len(defs))
	}
}

func TestDistinctTestbedsAreIsolated(t *testing.T) {
	a, err := New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("D2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.GenerateTraffic(1, time.Second); err != nil {
		t.Fatal(err)
	}
	if b.Medium.Stats().Tx != 0 {
		t.Fatal("traffic leaked between testbeds")
	}
}

func TestAddSensorJoinsTheHome(t *testing.T) {
	tb, err := New("D6", 8)
	if err != nil {
		t.Fatal(err)
	}
	sensor := tb.AddSensor(0x04, 30*time.Minute)
	if tb.Controller.Table().Len() != 4 {
		t.Fatalf("table = %v", tb.Controller.Table().IDs())
	}
	if got := tb.Controller.WakeupInterval(0x04); got != 30*time.Minute {
		t.Fatalf("wakeup interval = %s", got)
	}
	if err := sensor.WakeCycle(); err != nil {
		t.Fatal(err)
	}
	if got := tb.Controller.Stats().AppFrames; got < 3 {
		t.Fatalf("controller saw %d frames from the wake cycle", got)
	}
}

// published reads the process-wide counters Publish feeds.
func published() map[string]int64 {
	out := map[string]int64{}
	for _, name := range []string{
		"radio_tx_frames_total", "radio_rx_frames_total", "radio_frames_lost_total",
		"radio_frames_corrupted_total", "radio_frames_too_long_total",
		"protocol_frames_decoded_total", "protocol_decode_fail_total", "protocol_checksum_fail_total",
		"chaos_deliveries_total", "chaos_dropped_total", "chaos_corrupted_total",
		"chaos_duplicated_total", "chaos_delayed_total", "chaos_partitioned_total",
	} {
		out[name] = telemetry.Default().Counter(name).Load()
	}
	return out
}

// counted is what Publish should have added so far: the medium's and the
// injector's counts.
func counted(tb *Testbed) map[string]int64 {
	s, c := tb.Medium.Stats(), tb.Chaos.Stats()
	return map[string]int64{
		"radio_tx_frames_total": s.Tx, "radio_rx_frames_total": s.Rx,
		"radio_frames_lost_total": s.Lost, "radio_frames_corrupted_total": s.Corrupted,
		"radio_frames_too_long_total":   s.TooLong,
		"protocol_frames_decoded_total": s.Decoded, "protocol_decode_fail_total": s.DecodeFail,
		"protocol_checksum_fail_total": s.ChecksumFail,
		"chaos_deliveries_total":       c.Deliveries, "chaos_dropped_total": c.Dropped,
		"chaos_corrupted_total": c.Corrupted, "chaos_duplicated_total": c.Duplicated,
		"chaos_delayed_total": c.Delayed, "chaos_partitioned_total": c.Partitioned,
	}
}

// TestPublishAddsCountsOnce checks that Publish adds what the medium and
// the fault injector counted since its previous call, chaos counts
// included: a second call adds nothing, later traffic adds only itself,
// and nothing reaches the registry before Publish.
func TestPublishAddsCountsOnce(t *testing.T) {
	tb, err := New("D1", 1)
	if err != nil {
		t.Fatal(err)
	}
	tb.ApplyChaos(chaos.Profile{Name: "test", GoodLoss: 0.2, Corrupt: 0.2, Duplicate: 0.2}, 3)
	base := published()
	delta := func() map[string]int64 {
		d := published()
		for k := range d {
			d[k] -= base[k]
		}
		return d
	}
	tb.ScheduleTraffic(20, time.Second)
	tb.Clock.Advance(30 * time.Second)
	if err := tb.Medium.Attach("probe", tb.Region).Transmit(make([]byte, protocol.MaxFrameSize+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	want := counted(tb)
	for _, name := range []string{"radio_tx_frames_total", "radio_frames_too_long_total",
		"protocol_frames_decoded_total", "protocol_checksum_fail_total",
		"chaos_dropped_total", "chaos_corrupted_total", "chaos_duplicated_total"} {
		if want[name] == 0 {
			t.Fatalf("traffic left %s at zero; the test exercises nothing: %v", name, want)
		}
	}
	for name, v := range delta() {
		if v != 0 {
			t.Fatalf("%s moved by %d before Publish", name, v)
		}
	}

	tb.Publish()
	tb.Publish()
	if got := delta(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after two Publish calls the counters moved by\n%v\nwant the testbed's counts once\n%v", got, want)
	}

	tb.Clock.Advance(30 * time.Second) // the rest of the scheduled reports
	tb.Publish()
	if got, want := delta(), counted(tb); !reflect.DeepEqual(got, want) {
		t.Fatalf("after more traffic the counters moved by\n%v\nwant\n%v", got, want)
	}
}
