package radio

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// TestTransceiverConcurrentHammer drives attach/transmit/stats/detach from
// many goroutines against one shared medium. Run under -race (the tier-1
// suite always is) it pins the Transceiver synchronisation fixed in this
// package: Detach and deliver used to touch unsynchronised fields. Every
// delivery counts once: handler calls across all receivers equal Rx. The
// senders get their handlers before any traffic starts, so no delivery can
// reach a transceiver still waiting for SetReceiver; the churn nodes
// attached mid-traffic listen on the other region.
func TestTransceiverConcurrentHammer(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	var handled atomic.Int64
	count := func(Capture) { handled.Add(1) }

	// A stable listener that keeps receiving throughout.
	sink := m.Attach("sink", RegionUS)
	sink.SetReceiver(count)

	frame := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x41, 0x01, 0x0A, 0x02, 0x25}
	const workers = 8
	const rounds = 50
	senders := make([]*Transceiver, workers)
	for w := range senders {
		senders[w] = m.Attach("sender", RegionUS)
		senders[w].SetReceiver(count)
	}

	var wg sync.WaitGroup
	for w, tr := range senders {
		wg.Add(1)
		go func(w int, tr *Transceiver) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := tr.Transmit(frame); err != nil {
					t.Errorf("worker %d: transmit: %v", w, err)
					return
				}
				churn := m.Attach("churn", RegionEU)
				churn.SetReceiver(count)
				m.Stats()
				churn.Detach()
				if err := churn.Transmit(frame); !errors.Is(err, ErrDetached) {
					t.Errorf("worker %d: transmit after Detach = %v, want ErrDetached", w, err)
					return
				}
			}
			// Detach while the other senders are still transmitting.
			tr.Detach()
		}(w, tr)
	}
	wg.Wait()

	s := m.Stats()
	if s.Tx != workers*rounds {
		t.Errorf("tx = %d, want %d (a refused transmit after Detach counts nothing)", s.Tx, workers*rounds)
	}
	if s.Rx != handled.Load() || s.Rx < workers*rounds {
		t.Errorf("rx = %d, handlers saw %d, want equal and at least %d", s.Rx, handled.Load(), workers*rounds)
	}
}

// TestDetachedTransceiverDropsLateDelivery pins that a node detached
// concurrently with a transmission never observes the frame.
func TestDetachedTransceiverDropsLateDelivery(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	a := m.Attach("a", RegionUS)
	b := m.Attach("b", RegionUS)
	got := 0
	b.SetReceiver(func(Capture) { got++ })
	b.Detach()
	if err := a.Transmit([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("detached transceiver received %d frames", got)
	}
}

func TestFlightRecorderCapturesTransmissions(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	rec := telemetry.NewFlightRecorder(4)
	m.SetFlightRecorder(rec)

	a := m.Attach("attacker", RegionUS)
	b := m.Attach("victim", RegionUS)
	b.SetReceiver(func(Capture) {})

	// A clear-text frame, then an S0- and an S2-encapsulated payload
	// (security class is read from the first payload byte at HeaderSize=9).
	clear := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x02, 0x41, 0x01, 0x0C, 0x01, 0x25, 0x01, 0xFF}
	s0 := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x02, 0x41, 0x01, 0x0C, 0x01, 0x98, 0x81, 0x00}
	s2 := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x02, 0x41, 0x01, 0x0C, 0x01, 0x9F, 0x03, 0x00}
	for _, raw := range [][]byte{clear, s0, s2} {
		if err := a.Transmit(raw); err != nil {
			t.Fatal(err)
		}
	}

	snap := rec.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("recorded %d frames, want 3", len(snap))
	}
	wantSec := []telemetry.SecurityClass{telemetry.SecurityNone, telemetry.SecurityS0, telemetry.SecurityS2}
	for i, fr := range snap {
		if fr.Security != wantSec[i] {
			t.Errorf("frame %d security = %q, want %q", i, fr.Security, wantSec[i])
		}
		if fr.From != "attacker" || fr.Targets != 1 || fr.Lost != 0 || fr.Corrupted != 0 {
			t.Errorf("frame %d verdict = %+v", i, fr)
		}
		if fr.Airtime != Airtime(len(clear)) {
			t.Errorf("frame %d airtime = %v, want %v", i, fr.Airtime, Airtime(len(clear)))
		}
		if fr.At.After(clock.Now().Add(Airtime(len(clear)))) {
			t.Errorf("frame %d timestamp %v is off the sim timeline", i, fr.At)
		}
	}

	// Interceptor loss shows up in the verdict.
	m.SetInterceptor(dropAll)
	if err := a.Transmit(clear); err != nil {
		t.Fatal(err)
	}
	snap = rec.Snapshot()
	last := snap[len(snap)-1]
	if last.Lost != 1 || last.Targets != 1 {
		t.Errorf("lossy frame verdict = %+v, want Lost=1 of Targets=1", last)
	}
}
