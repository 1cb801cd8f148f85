package radio

import (
	"bytes"
	"testing"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

// TestRecorderUnaffectedByPooledDelivery drives the intercepted delivery
// path (with an interceptor that corrupts a copy of every frame) with a
// flight recorder attached, then keeps transmitting from pooled encode
// buffers. Earlier recorder snapshots must stay byte-identical — the
// recorder copies into ring-owned storage, so neither the corruption nor
// buffer reuse can reach it.
func TestRecorderUnaffectedByPooledDelivery(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	m.SetInterceptor(flipBit)
	rec := telemetry.NewFlightRecorder(64)
	m.SetFlightRecorder(rec)
	tx := m.Attach("tx", RegionEU)
	rx := m.Attach("rx", RegionEU)
	rx.SetReceiver(func(Capture) {})

	first := []byte{0x10, 0x20, 0x30, 0x40, 0x50}
	if err := tx.Transmit(first); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	snap := rec.Snapshot()
	if len(snap) != 1 || !bytes.Equal(snap[0].Raw, first) {
		t.Fatalf("recorder holds %x, want the transmitted %x", snap[0].Raw, first)
	}

	// Churn the buffer pool: every transmit borrows and returns a pooled
	// frame buffer. The earlier snapshot must not move.
	for i := 0; i < 50; i++ {
		buf := protocol.GetBuf()
		*buf = append(*buf, 0xEE, byte(i), 0xEE, byte(i))
		if err := tx.Transmit(*buf); err != nil {
			t.Fatal(err)
		}
		protocol.PutBuf(buf)
		clock.RunUntilIdle()
	}
	if !bytes.Equal(snap[0].Raw, first) {
		t.Fatalf("snapshot mutated by pooled-buffer reuse: %x", snap[0].Raw)
	}
}

// TestDelayedDeliveryOutlivesTransmitBuffer checks that a delayed
// delivery, whether its Raw is nil or aliases the interceptor's input,
// still carries the transmitted bytes after the transmitter overwrites its
// pooled buffer and returns it to the pool.
func TestDelayedDeliveryOutlivesTransmitBuffer(t *testing.T) {
	for _, alias := range []bool{false, true} {
		clock := vtime.NewSimClock()
		m := NewMedium(clock)
		m.SetInterceptor(func(_, _ string, raw []byte) []Delivery {
			d := Delivery{Delay: 50 * time.Millisecond}
			if alias {
				d.Raw = raw
			}
			return []Delivery{d}
		})
		tx := m.Attach("tx", RegionEU)
		rx := m.Attach("rx", RegionEU)
		var got [][]byte
		rx.SetReceiver(func(c Capture) { got = append(got, append([]byte(nil), c.Raw...)) })

		want := []byte{0x11, 0x22, 0x33, 0x44}
		buf := protocol.GetBuf()
		*buf = append(*buf, want...)
		if err := tx.Transmit(*buf); err != nil {
			t.Fatal(err)
		}
		for i := range *buf {
			(*buf)[i] = 0xEE
		}
		protocol.PutBuf(buf)
		if len(got) != 0 {
			t.Fatalf("alias=%v: delayed frame delivered inline", alias)
		}
		clock.RunUntilIdle()
		if len(got) != 1 || !bytes.Equal(got[0], want) {
			t.Fatalf("alias=%v: receiver saw %x, want %x", alias, got, want)
		}
	}
}

// TestCorruptDeliveryIsPrivatePerReceiver checks that each receiver's
// corrupted frame is its own: one receiver's bit flip neither compounds
// into the other receiver's frame nor leaks back into the transmitter's
// buffer.
func TestCorruptDeliveryIsPrivatePerReceiver(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	m.SetInterceptor(flipBit)
	tx := m.Attach("tx", RegionEU)
	raw := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]byte(nil), raw...)
	seen := make(map[string][]byte)
	for _, name := range []string{"a", "b"} {
		name := name
		r := m.Attach(name, RegionEU)
		r.SetReceiver(func(c Capture) {
			seen[name] = append([]byte(nil), c.Raw...)
		})
	}
	if err := tx.Transmit(raw); err != nil {
		t.Fatal(err)
	}
	clock.RunUntilIdle()
	if !bytes.Equal(raw, orig) {
		t.Fatalf("transmit buffer mutated by corruption path: %x", raw)
	}
	want := append([]byte(nil), orig...)
	want[len(want)-1] ^= 0x01
	for _, name := range []string{"a", "b"} {
		if got := seen[name]; !bytes.Equal(got, want) {
			t.Fatalf("receiver %s saw %x, want one flipped bit: %x", name, got, want)
		}
	}
}

// TestPooledEncodeBufferConcurrentTransmit exercises GetBuf/PutBuf reuse
// across concurrent transmitters under -race: many goroutines each append
// into pooled buffers (via the device send path shape) and transmit, while
// a recorder copies every frame and an interceptor corrupts every other
// one.
func TestPooledEncodeBufferConcurrentTransmit(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	m.SetInterceptor(func(from, to string, raw []byte) []Delivery {
		if raw[2]%2 == 0 {
			return flipBit(from, to, raw)
		}
		return []Delivery{{Raw: raw}}
	})
	rec := telemetry.NewFlightRecorder(16)
	m.SetFlightRecorder(rec)
	rx := m.Attach("rx", RegionEU)
	rx.SetReceiver(func(Capture) {})

	done := make(chan struct{})
	const workers = 6
	// Attach every worker before any transmits, so each frame's fan-out
	// is the full set of peers whichever goroutine starts first.
	trxs := make([]*Transceiver, workers)
	for w := range trxs {
		trxs[w] = m.Attach("w"+string(rune('a'+w)), RegionEU)
	}
	for w, trx := range trxs {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				buf := protocol.GetBuf()
				*buf = append(*buf, 0xC0, byte(w), byte(i), 0xFE)
				if err := trx.Transmit(*buf); err != nil {
					t.Errorf("transmit: %v", err)
					protocol.PutBuf(buf)
					return
				}
				protocol.PutBuf(buf)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("timeout waiting for transmitters")
		}
	}
	clock.RunUntilIdle()
	// Every frame reaches rx and the other workers' transceivers.
	if s := m.Stats(); s.Tx != workers*100 || s.Rx != workers*s.Tx || s.Corrupted != s.Rx/2 {
		t.Fatalf("stats = %+v, want %d sent, %d received, half of them corrupted", s, workers*100, workers*workers*100)
	}
}
