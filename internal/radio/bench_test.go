package radio

import (
	"testing"

	"zcover/internal/vtime"
)

// transmitAndSettle sends one frame and advances past its airtime, as a
// real frame cycle does, so the airtime event fires instead of piling up
// in the clock's queue across iterations.
func transmitAndSettle(tb testing.TB, clock *vtime.SimClock, tx *Transceiver, raw []byte) {
	if err := tx.Transmit(raw); err != nil {
		tb.Fatal(err)
	}
	clock.Advance(Airtime(len(raw)))
}

func BenchmarkTransmitFanout(b *testing.B) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionUS)
	for i := 0; i < 8; i++ {
		m.Attach("rx", RegionUS).SetReceiver(func(Capture) {})
	}
	raw := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		transmitAndSettle(b, clock, tx, raw)
	}
}

func BenchmarkTransmitWithRangeModel(b *testing.B) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	m.SetRange(40)
	tx := m.Attach("tx", RegionUS)
	tx.Place(0, 0)
	for i := 0; i < 8; i++ {
		rx := m.Attach("rx", RegionUS)
		rx.Place(float64(i*10), 0)
		rx.SetReceiver(func(Capture) {})
	}
	raw := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		transmitAndSettle(b, clock, tx, raw)
	}
}

// TestTransmitCleanPathAllocs pins the clean frame cycle's radio cost: a
// Transmit to three receivers plus the Advance past its airtime allocates
// nothing once the fan-out cache and the event heap are warm.
func TestTransmitCleanPathAllocs(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	got := 0
	for i := 0; i < 3; i++ {
		m.Attach("rx", RegionEU).SetReceiver(func(Capture) { got++ })
	}
	raw := make([]byte, 32)
	if allocs := testing.AllocsPerRun(100, func() { transmitAndSettle(t, clock, tx, raw) }); allocs != 0 {
		t.Fatalf("clean-path Transmit+Advance allocates %.1f times per frame, want 0", allocs)
	}
	if want := 3 * 101; got != want || clock.PendingEvents() != 0 {
		t.Fatalf("receivers saw %d frames (want %d), %d events left queued", got, want, clock.PendingEvents())
	}
}
