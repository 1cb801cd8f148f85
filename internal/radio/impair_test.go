package radio

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"zcover/internal/vtime"
)

// dropAll is an interceptor that loses every frame.
func dropAll(_, _ string, _ []byte) []Delivery { return nil }

// flipBit is an interceptor that corrupts every frame by one bit of its
// last byte, the CS-8 checksum. Its input is read-only, so it flips a
// copy.
func flipBit(_, _ string, raw []byte) []Delivery {
	cp := append([]byte(nil), raw...)
	cp[len(cp)-1] ^= 0x01
	return []Delivery{{Raw: cp}}
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
	m.SetInterceptor(func(from, to string, raw []byte) []Delivery {
		if from != "tx" || to != "rx" {
			t.Errorf("interceptor saw link %s->%s", from, to)
		}
		return []Delivery{{Raw: raw}}
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
// nil drops, two deliveries duplicate, and a positive delay arrives later
// on the simulated clock.
func TestInterceptorDropDuplicateDelay(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	rx := m.Attach("rx", RegionEU)
	var got []Capture
	rx.SetReceiver(func(c Capture) { got = append(got, c) })

	mode := "drop"
	m.SetInterceptor(func(from, to string, raw []byte) []Delivery {
		switch mode {
		case "drop":
			return nil
		case "dup":
			return []Delivery{{Raw: raw}, {Delay: 2 * time.Millisecond, Raw: raw}}
		default:
			return []Delivery{{Delay: 50 * time.Millisecond, Raw: raw}}
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
// many goroutines under -race: transmissions, interceptor rewrites with
// delays and duplicates, and attach/detach churn all at once.
func TestInterceptorConcurrentHammer(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	var intercepted int64
	var imu sync.Mutex
	m.SetInterceptor(func(from, to string, raw []byte) []Delivery {
		imu.Lock()
		intercepted++
		n := intercepted
		imu.Unlock()
		switch n % 4 {
		case 0:
			return nil
		case 1:
			cp := append([]byte(nil), raw...)
			cp[0] ^= 0x80
			return []Delivery{{Raw: cp}}
		case 2:
			return []Delivery{{Raw: raw}, {Delay: time.Millisecond, Raw: raw}}
		default:
			return []Delivery{{Delay: 3 * time.Millisecond, Raw: raw}}
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
