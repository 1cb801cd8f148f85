package chaos

import (
	"testing"

	"zcover/internal/radio"
	"zcover/internal/vtime"
)

// interceptedMedium builds a medium with one transmitter, fanout silent
// receivers, and an injector for the named built-in profile attached.
func interceptedMedium(tb testing.TB, profile string, fanout int) (*vtime.SimClock, *radio.Transceiver, *int) {
	tb.Helper()
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	tx := m.Attach("tx", radio.RegionEU)
	got := new(int)
	for i := 0; i < fanout; i++ {
		m.Attach("rx", radio.RegionEU).SetReceiver(func(radio.Capture) { *got++ })
	}
	New(builtins[profile], 1).Attach(m)
	return clock, tx, got
}

// transmitAndSettle sends one frame and runs the clock until every
// delivery, delayed and duplicated ones included, has arrived.
func transmitAndSettle(tb testing.TB, clock *vtime.SimClock, tx *radio.Transceiver, raw []byte) {
	if err := tx.Transmit(raw); err != nil {
		tb.Fatal(err)
	}
	clock.RunUntilIdle()
}

// TestInterceptedPassThroughAllocs is TestTransmitCleanPathAllocs behind
// the injector: with the none profile every delivery is the shared
// pass-through, so a Transmit to three receivers plus the run past its
// airtime allocates nothing once the link streams and the event heap are
// warm.
func TestInterceptedPassThroughAllocs(t *testing.T) {
	clock, tx, got := interceptedMedium(t, "none", 3)
	raw := make([]byte, 32)
	if allocs := testing.AllocsPerRun(100, func() { transmitAndSettle(t, clock, tx, raw) }); allocs != 0 {
		t.Fatalf("intercepted Transmit+Advance allocates %.1f times per frame, want 0", allocs)
	}
	if want := 3 * 101; *got != want || clock.PendingEvents() != 0 {
		t.Fatalf("receivers saw %d frames (want %d), %d events left queued", *got, want, clock.PendingEvents())
	}
}

// BenchmarkTransmitIntercepted is radio.BenchmarkTransmitFanout with the
// injector in the path: a fan-out of 8 through the none profile (every
// delivery passes through) and the lossy one (loss, corruption, jitter
// and duplicates).
func BenchmarkTransmitIntercepted(b *testing.B) {
	for _, profile := range []string{"none", "lossy"} {
		b.Run(profile, func(b *testing.B) {
			clock, tx, _ := interceptedMedium(b, profile, 8)
			raw := make([]byte, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				transmitAndSettle(b, clock, tx, raw)
			}
		})
	}
}
