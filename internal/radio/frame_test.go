package radio

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/vtime"
)

// reception is what one receiver saw in one callback.
type reception struct {
	rx     string
	raw    []byte
	f      *protocol.Frame
	frame  protocol.Frame // copy of *f taken in the callback
	err    error
	inline bool // arrived within Transmit, not from the clock
}

// frameCopy copies f with a private payload (nil when empty).
func frameCopy(f *protocol.Frame) protocol.Frame {
	cp := *f
	cp.Payload = append([]byte(nil), f.Payload...)
	return cp
}

// Property: whatever an interceptor does to a delivery — passes it,
// flips a bit inline or in a delayed copy, duplicates it, delays it or
// drops it — every receiver's Capture.Frame equals its own
// protocol.DecodeInto of the bytes it got. Receivers handed the
// transmitted bytes within Transmit share one decoded frame, and Stats
// counts one outcome per Frame call.
func TestCaptureFrameMatchesPerReceiverDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	tx := m.Attach("tx", RegionEU)
	var got []reception
	var sent []byte
	inTransmit, received, calls := false, 0, 0
	for _, name := range []string{"a", "b", "c"} {
		name := name
		m.Attach(name, RegionEU).SetReceiver(func(c Capture) {
			// The transmission's shared frame stays decoded for every
			// receiver of its bytes, not only the one that decoded it.
			for _, r := range got {
				if r.f != nil && r.inline && inTransmit && bytes.Equal(r.raw, sent) &&
					!reflect.DeepEqual(frameCopy(r.f), r.frame) {
					t.Fatalf("%s's frame changed before %s's callback: %+v", r.rx, name, *r.f)
				}
			}
			f, err := c.Frame()
			received, calls = received+1, calls+1
			r := reception{rx: name, raw: append([]byte(nil), c.Raw...), f: f, err: err, inline: inTransmit}
			if f != nil {
				r.frame = frameCopy(f)
			}
			got = append(got, r)
			if name == "c" { // a second call counts a second outcome
				_, _ = c.Frame()
				calls++
			}
		})
	}
	m.SetInterceptFunc(func(dst []Delivery, _, _ *Transceiver, raw []byte) []Delivery {
		switch rng.Intn(7) {
		case 0:
			return dst
		case 1:
			return append(dst, Delivery{Delay: time.Duration(1+rng.Intn(50)) * time.Millisecond,
				Offset: rng.Intn(len(raw)), Mask: 1 << rng.Intn(8)})
		case 2:
			return append(dst, Delivery{Offset: rng.Intn(len(raw)), Mask: 1 << rng.Intn(8)})
		case 3:
			return append(dst, Delivery{}, Delivery{})
		case 4:
			return append(dst, Delivery{Delay: time.Duration(1+rng.Intn(50)) * time.Millisecond})
		default:
			return append(dst, Delivery{})
		}
	})

	for i := 0; i < 500; i++ {
		var raw []byte
		if i%5 == 4 { // garbage: mostly undecodable
			raw = make([]byte, 1+rng.Intn(protocol.MaxFrameSize))
			rng.Read(raw)
		} else {
			payload := make([]byte, rng.Intn(40))
			rng.Read(payload)
			raw = protocol.NewDataFrame(protocol.HomeID(rng.Uint32()), 1, protocol.NodeID(1+rng.Intn(200)), payload).MustEncode()
		}
		got, sent = got[:0], raw
		inTransmit = true
		if err := tx.Transmit(raw); err != nil {
			t.Fatal(err)
		}
		inTransmit = false
		clock.Advance(time.Second)

		var shared *protocol.Frame
		for _, r := range got {
			var want protocol.Frame
			wantErr := protocol.DecodeInto(&want, r.raw, protocol.ChecksumCS8)
			want = frameCopy(&want)
			if (r.err == nil) != (wantErr == nil) || r.err != nil && r.err.Error() != wantErr.Error() {
				t.Fatalf("frame %d at %s: Frame error %v, DecodeInto error %v", i, r.rx, r.err, wantErr)
			}
			if r.err == nil && !reflect.DeepEqual(r.frame, want) {
				t.Fatalf("frame %d at %s: Frame = %+v, DecodeInto = %+v", i, r.rx, r.frame, want)
			}
			if r.f == nil || !r.inline || !bytes.Equal(r.raw, raw) {
				continue
			}
			if shared == nil {
				shared = r.f
			} else if r.f != shared {
				t.Fatalf("frame %d: receivers of the transmitted bytes hold different frames", i)
			}
		}
	}
	s := m.Stats()
	if s.Rx != int64(received) || s.Decoded+s.DecodeFail != int64(calls) {
		t.Fatalf("stats %+v, want %d receptions and one outcome per Frame call (%d)", s, received, calls)
	}
	if s.Decoded == 0 || s.ChecksumFail == 0 || s.Corrupted == 0 || s.Lost == 0 {
		t.Fatalf("stats %+v: the run missed an outcome it should cover", s)
	}
}

// TestNestedTransmitKeepsOuterDecode: a receiver that transmits from its
// callback — here back through the very transceiver whose frame it is
// receiving, as a MAC ack path can — leaves the outer transmission's
// decode intact for the receivers after it and for itself.
func TestNestedTransmitKeepsOuterDecode(t *testing.T) {
	m := newTestMedium()
	a := m.Attach("a", RegionEU)
	b := m.Attach("b", RegionEU)
	c := m.Attach("c", RegionEU)
	outer := protocol.NewDataFrame(1, 1, 2, []byte{0x20, 0x01, 0xFF}).MustEncode()
	inner := protocol.NewDataFrame(9, 9, 8, []byte{0x86, 0x11}).MustEncode()
	var cSaw []protocol.NodeID
	b.SetReceiver(func(cp Capture) {
		f, err := cp.Frame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Dst != 2 {
			return // b's view of the nested frame
		}
		if err := a.Transmit(inner); err != nil {
			t.Fatal(err)
		}
		if f.Dst != 2 || f.Home != 1 || !bytes.Equal(f.Payload, []byte{0x20, 0x01, 0xFF}) {
			t.Errorf("nested transmit overwrote b's outer frame: %+v", f)
		}
	})
	c.SetReceiver(func(cp Capture) {
		f, err := cp.Frame()
		if err != nil {
			t.Fatal(err)
		}
		cSaw = append(cSaw, f.Dst)
	})
	if err := a.Transmit(outer); err != nil {
		t.Fatal(err)
	}
	if want := []protocol.NodeID{8, 2}; !reflect.DeepEqual(cSaw, want) {
		t.Fatalf("c decoded destinations %v, want the nested frame's then the outer's %v", cSaw, want)
	}
}

// TestKeptSnifferCaptureDecodesItsOwnBytes: a capture the Sniffer keeps
// owns its bytes and no pooled decode, so after the transmitter overwrites
// its buffer, and while a later transmission's decode is in use, Frame
// still decodes the frame as it was received and leaves the live one be.
func TestKeptSnifferCaptureDecodesItsOwnBytes(t *testing.T) {
	m := newTestMedium()
	tx := m.Attach("tx", RegionEU)
	s := NewSniffer(m, RegionEU, 0)
	var kept, live protocol.Frame
	var keptErr error
	m.Attach("rx", RegionEU).SetReceiver(func(c Capture) {
		f, _ := c.Frame()
		if caps := s.Captures(); len(caps) == 10 {
			var k *protocol.Frame
			if k, keptErr = caps[0].Frame(); keptErr == nil {
				kept = frameCopy(k)
			}
			live = frameCopy(f)
		}
	})
	raw := protocol.NewDataFrame(1, 1, 2, []byte{0x20, 0x01, 0xFF}).MustEncode()
	first := append([]byte(nil), raw...)
	for i := 0; i < 10; i++ {
		if err := tx.Transmit(raw); err != nil {
			t.Fatal(err)
		}
		copy(raw, protocol.NewDataFrame(7, 3, protocol.NodeID(4+i), []byte{0x86, byte(i), 0}).MustEncode())
	}
	if caps := s.Captures(); !bytes.Equal(caps[0].Raw, first) {
		t.Fatalf("kept capture bytes %x, want %x", caps[0].Raw, first)
	}
	if keptErr != nil || kept.Home != 1 || kept.Dst != 2 || !bytes.Equal(kept.Payload, []byte{0x20, 0x01, 0xFF}) {
		t.Fatalf("kept capture decodes to %+v, %v", kept, keptErr)
	}
	if live.Home != 7 || live.Dst != 4+8 {
		t.Fatalf("decoding the kept capture changed the live frame to %+v", live)
	}
}
