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
// the injector, for every built-in profile: a Transmit to three receivers
// plus the run past every delayed and duplicated delivery allocates
// nothing once the link streams, the medium's event records and the
// event heap are warm. The decisions go into the medium's storage and a
// corruption is an offset and a mask, so drops, flips, delays and
// duplicates cost no more than a pass-through.
func TestInterceptedPassThroughAllocs(t *testing.T) {
	for _, profile := range Profiles() {
		t.Run(profile, func(t *testing.T) {
			clock, tx, got := interceptedMedium(t, profile, 3)
			raw := make([]byte, 32)
			for i := 0; i < 200; i++ {
				transmitAndSettle(t, clock, tx, raw)
			}
			warm := *got
			// Under -race sync.Pool drops items, so only the deliveries are
			// checked there.
			if allocs := testing.AllocsPerRun(100, func() { transmitAndSettle(t, clock, tx, raw) }); allocs != 0 && !raceEnabled {
				t.Fatalf("intercepted Transmit+RunUntilIdle allocates %.1f times per frame, want 0", allocs)
			}
			if *got == warm || clock.PendingEvents() != 0 {
				t.Fatalf("receivers saw no frame while measured, or %d events left queued", clock.PendingEvents())
			}
			if profile == "none" && *got != 3*301 {
				t.Fatalf("receivers saw %d frames through the none profile, want %d", *got, 3*301)
			}
		})
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
