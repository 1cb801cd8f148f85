package radio

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/vtime"
)

// dropAll is an interceptor that loses every frame.
func dropAll(dst []Delivery, _, _ *Transceiver, _ []byte) []Delivery { return dst }

// flipBit is an interceptor that corrupts every frame by one bit of its
// last byte, the CS-8 checksum.
func flipBit(dst []Delivery, _, _ *Transceiver, raw []byte) []Delivery {
	return append(dst, Delivery{Offset: len(raw) - 1, Mask: 0x01})
}

// TestInterceptorPassthroughKeepsDelivery checks that an interceptor
// returning the frame unchanged with no delay is invisible to receivers.
func TestInterceptorPassthroughKeepsDelivery(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	rx := m.Attach("rx", RegionEU)
	var got []Capture
	rx.SetReceiver(func(c Capture) { got = append(got, c) })
	m.SetInterceptFunc(func(dst []Delivery, from, to *Transceiver, raw []byte) []Delivery {
		if from != tx || to != rx {
			t.Errorf("interceptor saw link %s->%s", from.Name(), to.Name())
		}
		return append(dst, Delivery{})
	})
	frame := []byte{1, 2, 3, 4, 5}
	if err := tx.Transmit(frame); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if len(got) != 1 || !bytes.Equal(got[0].Raw, frame) {
		t.Fatalf("passthrough delivery mangled: %v", got)
	}
}

// TestInterceptorDropDuplicateDelay exercises the three interceptor verbs:
// no delivery drops, two duplicate, and a positive delay arrives later
// on the simulated clock.
func TestInterceptorDropDuplicateDelay(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	rx := m.Attach("rx", RegionEU)
	var got []Capture
	rx.SetReceiver(func(c Capture) { got = append(got, c) })

	mode := "drop"
	m.SetInterceptFunc(func(dst []Delivery, _, _ *Transceiver, _ []byte) []Delivery {
		switch mode {
		case "drop":
			return dst
		case "dup":
			return append(dst, Delivery{}, Delivery{Delay: 2 * time.Millisecond})
		default:
			return append(dst, Delivery{Delay: 50 * time.Millisecond})
		}
	})

	frame := []byte{9, 9, 9}
	if err := tx.Transmit(frame); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if len(got) != 0 {
		t.Fatalf("dropped frame delivered: %v", got)
	}

	mode = "dup"
	if err := tx.Transmit(frame); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if len(got) != 2 {
		t.Fatalf("duplicate mode delivered %d frames, want 2", len(got))
	}
	if !got[1].At.After(got[0].At) {
		t.Errorf("duplicate copy not delayed: %v vs %v", got[0].At, got[1].At)
	}

	got = nil
	mode = "delay"
	start := clock.Now()
	if err := tx.Transmit(frame); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if len(got) != 1 {
		t.Fatalf("delayed frame count = %d, want 1", len(got))
	}
	if d := got[0].At.Sub(start); d < 50*time.Millisecond {
		t.Errorf("delayed delivery arrived after %v, want >= 50ms + airtime", d)
	}
}

// TestInterceptorConcurrentHammer drives the interceptor pipeline from
// many goroutines under -race: transmissions, interceptor flips, delays
// and duplicates, and attach/detach churn all at once.
func TestInterceptorConcurrentHammer(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	var intercepted int64
	var imu sync.Mutex
	m.SetInterceptFunc(func(dst []Delivery, _, _ *Transceiver, _ []byte) []Delivery {
		imu.Lock()
		intercepted++
		n := intercepted
		imu.Unlock()
		switch n % 4 {
		case 0:
			return dst
		case 1:
			return append(dst, Delivery{Mask: 0x80})
		case 2:
			return append(dst, Delivery{}, Delivery{Delay: time.Millisecond, Offset: 2, Mask: 0x01})
		default:
			return append(dst, Delivery{Delay: 3 * time.Millisecond})
		}
	})
	rx := m.Attach("rx", RegionEU)
	rx.SetReceiver(func(Capture) {})

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			trx := m.Attach(fmt.Sprintf("w%d", w), RegionEU)
			trx.SetReceiver(func(Capture) {})
			for i := 0; i < 50; i++ {
				_ = trx.Transmit([]byte{byte(w), byte(i), 0xAA})
				m.Stats()
			}
			trx.Detach()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			clock.RunUntilIdle()
			if intercepted == 0 {
				t.Fatal("interceptor never invoked")
			}
			return
		default:
			clock.Advance(time.Millisecond)
		}
	}
}

// TestSetInterceptorByName drives the name-keyed form: the interceptor
// sees endpoint names, its answer (here a delayed flip) is applied as
// the allocation-free form's would be, and nil removes it.
func TestSetInterceptorByName(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	rx := m.Attach("rx", RegionEU)
	var got [][]byte
	rx.SetReceiver(func(c Capture) { got = append(got, append([]byte(nil), c.Raw...)) })
	m.SetInterceptor(func(from, to string, raw []byte) []Delivery {
		if from != "tx" || to != "rx" {
			t.Errorf("interceptor saw link %s->%s", from, to)
		}
		return []Delivery{{Delay: time.Millisecond, Offset: 1, Mask: 0x0F}}
	})
	if err := tx.Transmit([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	m.SetInterceptor(nil)
	if err := tx.Transmit([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], []byte{1, 0x0D, 3}) || !bytes.Equal(got[1], []byte{1, 2, 3}) {
		t.Fatalf("receiver saw %x, want the flipped frame then the frame as sent", got)
	}
	if s := m.Stats(); s.Corrupted != 1 {
		t.Fatalf("stats = %+v, want one corrupted delivery", s)
	}
}

// TestInterceptBytesIndependentOfBuffer: applying a flip, inline or
// delayed, to one receiver's copy never writes the transmitter's buffer,
// and the receivers after it see their own answers.
func TestInterceptBytesIndependentOfBuffer(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	flipped := m.Attach("flipped", RegionEU)
	late := m.Attach("late", RegionEU)
	clean := m.Attach("clean", RegionEU)
	m.SetInterceptFunc(func(dst []Delivery, _, to *Transceiver, raw []byte) []Delivery {
		switch to {
		case flipped:
			return append(dst, Delivery{Offset: 0, Mask: 0xFF})
		case late:
			return append(dst, Delivery{Delay: time.Millisecond, Offset: len(raw) - 1, Mask: 0x80})
		}
		return append(dst, Delivery{})
	})
	orig := []byte{1, 2, 3, 4}
	raw := append([]byte(nil), orig...)
	seen := make(map[string][]byte)
	for _, r := range []*Transceiver{flipped, late, clean} {
		r.SetReceiver(func(c Capture) {
			if !bytes.Equal(raw, orig) {
				t.Errorf("transmit buffer %x changed before %s's callback", raw, r.Name())
			}
			seen[r.Name()] = append([]byte(nil), c.Raw...)
		})
	}
	if err := tx.Transmit(raw); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if !bytes.Equal(raw, orig) {
		t.Fatalf("flips wrote the transmit buffer: %x", raw)
	}
	for name, want := range map[string][]byte{
		"flipped": {0xFE, 2, 3, 4}, "late": {1, 2, 3, 0x84}, "clean": orig,
	} {
		if !bytes.Equal(seen[name], want) {
			t.Errorf("%s saw %x, want %x", name, seen[name], want)
		}
	}
}

// TestFlipOutsideFramePanics: a flip whose offset lies outside the frame
// is an interceptor bug, and the medium names the link.
func TestFlipOutsideFramePanics(t *testing.T) {
	for _, off := range []int{-1, 3} {
		m := NewMedium(vtime.NewSimClock())
		tx := m.Attach("tx", RegionEU)
		m.Attach("rx", RegionEU)
		m.SetInterceptFunc(func(dst []Delivery, _, _ *Transceiver, _ []byte) []Delivery {
			return append(dst, Delivery{Offset: off, Mask: 1})
		})
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "tx->rx") {
					t.Errorf("offset %d: panic %q does not name the link", off, msg)
				}
			}()
			_ = tx.Transmit([]byte{1, 2, 3})
		}()
	}
}

// TestInterceptedFaultPathAllocs: a delivery that is flipped inline, a
// delayed flipped one and its duplicate allocate nothing once the
// transmit state, the frame-buffer pool and the medium's event records
// are warm.
func TestInterceptedFaultPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	got := 0
	for i := 0; i < 3; i++ {
		m.Attach("rx", RegionEU).SetReceiver(func(c Capture) {
			if _, err := c.Frame(); err == nil {
				t.Error("a flipped checksum decoded")
			}
			got++
		})
	}
	m.SetInterceptFunc(func(dst []Delivery, _, _ *Transceiver, raw []byte) []Delivery {
		flip := Delivery{Offset: len(raw) - 1, Mask: 0x10}
		late := flip
		late.Delay = 5 * time.Millisecond
		return append(dst, flip, late, late)
	})
	raw := protocol.NewDataFrame(1, 1, 2, []byte{0x20, 0x02}).MustEncode()
	run := func() {
		if err := tx.Transmit(raw); err != nil {
			t.Fatal(err)
		}
		clock.RunUntilIdle()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("flipped, delayed and duplicated deliveries allocate %.1f times per frame, want 0", allocs)
	}
	if want := 3 * 3 * 101; got != want || clock.PendingEvents() != 0 {
		t.Fatalf("receivers saw %d frames (want %d), %d events left queued", got, want, clock.PendingEvents())
	}
	if s := m.Stats(); s.Corrupted != int64(got) {
		t.Fatalf("stats = %+v, want all %d deliveries corrupted", s, got)
	}
}
