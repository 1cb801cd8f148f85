package radio

import (
	"bytes"
	"errors"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/telemetry"
	"zcover/internal/vtime"
)

func newTestMedium() *Medium {
	return NewMedium(vtime.NewSimClock())
}

func TestTransmitDeliversToSameRegion(t *testing.T) {
	m := newTestMedium()
	a := m.Attach("a", RegionEU)
	b := m.Attach("b", RegionEU)
	var got []byte
	b.SetReceiver(func(c Capture) { got = c.Raw })

	raw := protocol.NewDataFrame(0xCB95A34A, 1, 2, []byte{0x20, 0x01, 0xFF}).MustEncode()
	if err := a.Transmit(raw); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(raw) {
		t.Fatalf("received % X, want % X", got, raw)
	}
}

func TestTransmitNotDeliveredAcrossRegions(t *testing.T) {
	m := newTestMedium()
	a := m.Attach("a", RegionEU)
	b := m.Attach("b", RegionUS)
	delivered := false
	b.SetReceiver(func(Capture) { delivered = true })
	if err := a.Transmit([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("frame crossed RF regions")
	}
}

func TestTransmitNotEchoedToSender(t *testing.T) {
	m := newTestMedium()
	a := m.Attach("a", RegionEU)
	echo := false
	a.SetReceiver(func(Capture) { echo = true })
	if err := a.Transmit(make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	if echo {
		t.Fatal("sender heard its own transmission")
	}
}

func TestTransmitRejectsOversizedFrame(t *testing.T) {
	m := newTestMedium()
	a := m.Attach("a", RegionEU)
	if err := a.Transmit(make([]byte, protocol.MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("err = %v, want ErrFrameTooLong", err)
	}
}

func TestDetachedTransceiver(t *testing.T) {
	m := newTestMedium()
	a := m.Attach("a", RegionEU)
	b := m.Attach("b", RegionEU)
	got := 0
	b.SetReceiver(func(Capture) { got++ })
	b.Detach()
	if err := a.Transmit(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("detached transceiver received a frame")
	}
	if err := b.Transmit(make([]byte, 10)); !errors.Is(err, ErrDetached) {
		t.Fatalf("detached transmit err = %v, want ErrDetached", err)
	}
}

func TestAirtimeModel(t *testing.T) {
	// 30-byte frame: (30+10)*8 bits at 100 kbit/s = 3.2 ms + 1 ms turnaround.
	want := TurnaroundTime + 3200*time.Microsecond
	if got := Airtime(30); got != want {
		t.Fatalf("Airtime(30) = %v, want %v", got, want)
	}
	if Airtime(64) <= Airtime(8) {
		t.Fatal("airtime must grow with frame size")
	}
}

func TestTransmitAdvancesCaptureTimestamp(t *testing.T) {
	clock := vtime.NewSimClock()
	m := NewMedium(clock)
	a := m.Attach("a", RegionEU)
	b := m.Attach("b", RegionEU)
	var at time.Time
	b.SetReceiver(func(c Capture) { at = c.At })
	raw := make([]byte, 20)
	if err := a.Transmit(raw); err != nil {
		t.Fatal(err)
	}
	if want := vtime.SimEpoch.Add(Airtime(len(raw))); !at.Equal(want) {
		t.Fatalf("capture timestamp %v, want %v", at, want)
	}
}

func TestStatsCount(t *testing.T) {
	m := newTestMedium()
	a := m.Attach("a", RegionEU)
	b := m.Attach("b", RegionEU)
	b.SetReceiver(func(Capture) {})
	for i := 0; i < 5; i++ {
		if err := a.Transmit(make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if tx, _ := a.Stats(); tx != 5 {
		t.Fatalf("a tx = %d, want 5", tx)
	}
	if _, rx := b.Stats(); rx != 5 {
		t.Fatalf("b rx = %d, want 5", rx)
	}
	if m.TransmitCount() != 5 {
		t.Fatalf("medium count = %d", m.TransmitCount())
	}
}

// TestReceiverOwnershipContract pins the zero-copy delivery contract:
// Capture.Raw is valid (and byte-correct) during the callback, aliases the
// transmitter's buffer on the clean path, and therefore must be copied by
// receivers that retain it — exactly what Sniffer and the dongle do.
func TestReceiverOwnershipContract(t *testing.T) {
	m := newTestMedium()
	a := m.Attach("a", RegionEU)
	b := m.Attach("b", RegionEU)
	raw := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var aliased, retained []byte
	b.SetReceiver(func(c Capture) {
		if !bytes.Equal(c.Raw, raw) {
			t.Errorf("callback saw %x, want %x", c.Raw, raw)
		}
		aliased = c.Raw
		retained = append([]byte(nil), c.Raw...)
	})
	if err := a.Transmit(raw); err != nil {
		t.Fatal(err)
	}
	raw[0] = 0xFF
	if aliased[0] != 0xFF {
		t.Fatal("clean-path delivery made a copy; expected zero-copy aliasing")
	}
	if retained[0] != 1 {
		t.Fatal("copied retention affected by transmitter mutation")
	}
}

func TestLossImpairment(t *testing.T) {
	m := newTestMedium()
	m.SetImpairments(1.0, 0, 99) // 100% loss
	a := m.Attach("a", RegionEU)
	b := m.Attach("b", RegionEU)
	got := 0
	b.SetReceiver(func(Capture) { got++ })
	for i := 0; i < 10; i++ {
		if err := a.Transmit(make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if got != 0 {
		t.Fatalf("received %d frames under 100%% loss", got)
	}
}

func TestNoiseImpairmentCorruptsChecksum(t *testing.T) {
	m := newTestMedium()
	m.SetImpairments(0, 1.0, 7) // every frame corrupted by one bit
	a := m.Attach("a", RegionEU)
	b := m.Attach("b", RegionEU)
	bad := 0
	b.SetReceiver(func(c Capture) {
		if _, err := protocol.Decode(c.Raw, protocol.ChecksumCS8); err != nil {
			bad++
		}
	})
	raw := protocol.NewDataFrame(1, 1, 2, []byte{0x20, 0x02}).MustEncode()
	for i := 0; i < 20; i++ {
		if err := a.Transmit(raw); err != nil {
			t.Fatal(err)
		}
	}
	if bad != 20 {
		t.Fatalf("only %d/20 corrupted frames failed decode", bad)
	}
}

func TestSnifferSeesAllHomeIDs(t *testing.T) {
	m := newTestMedium()
	s := NewSniffer(m, RegionEU, 0)
	a := m.Attach("a", RegionEU)

	f1 := protocol.NewDataFrame(0xCB95A34A, 0x0F, 0x01, []byte{0x25, 0x03, 0xFF}).MustEncode()
	f2 := protocol.NewDataFrame(0xE7DE3F3D, 0x01, 0x02, []byte{0x20, 0x02}).MustEncode()
	for _, f := range [][]byte{f1, f2, f1} {
		if err := a.Transmit(f); err != nil {
			t.Fatal(err)
		}
	}
	nets := s.Networks()
	if len(nets) != 2 {
		t.Fatalf("saw %d networks, want 2", len(nets))
	}
	nodes := nets[protocol.HomeID(0xCB95A34A)]
	if len(nodes) != 2 || nodes[0] != 0x01 || nodes[1] != 0x0F {
		t.Fatalf("home CB95A34A nodes = %v", nodes)
	}
	if got := len(s.Captures()); got != 3 {
		t.Fatalf("captures = %d, want 3", got)
	}
	s.Clear()
	if len(s.Captures()) != 0 {
		t.Fatal("Clear left captures behind")
	}
}

func TestSnifferRingLimit(t *testing.T) {
	m := newTestMedium()
	s := NewSniffer(m, RegionEU, 2)
	a := m.Attach("a", RegionEU)
	for i := byte(1); i <= 4; i++ {
		raw := protocol.NewDataFrame(1, protocol.NodeID(i), 2, []byte{0x20, 0x02}).MustEncode()
		if err := a.Transmit(raw); err != nil {
			t.Fatal(err)
		}
	}
	caps := s.Captures()
	if len(caps) != 2 {
		t.Fatalf("retained %d captures, want 2", len(caps))
	}
	if _, src, _, _ := protocol.SniffNetworkInfo(caps[0].Raw); src != 3 {
		t.Fatalf("oldest retained src = %v, want 3", src)
	}
}

func TestSnifferIgnoresBroadcastAndRunts(t *testing.T) {
	m := newTestMedium()
	s := NewSniffer(m, RegionEU, 0)
	a := m.Attach("a", RegionEU)
	bcast := protocol.NewDataFrame(5, 1, protocol.NodeBroadcast, []byte{0x20, 0x02}).MustEncode()
	if err := a.Transmit(bcast); err != nil {
		t.Fatal(err)
	}
	if err := a.Transmit([]byte{1, 2, 3}); err != nil { // runt
		t.Fatal(err)
	}
	nets := s.Networks()
	nodes := nets[protocol.HomeID(5)]
	if len(nodes) != 1 || nodes[0] != 1 {
		t.Fatalf("nodes = %v, want [1] (broadcast dst excluded)", nodes)
	}
}

// bruteForceFanout scans every node of the medium for the peers a frame
// from tx must reach: attached, same region, in range, not tx itself.
func bruteForceFanout(m *Medium, tx *Transceiver) []*Transceiver {
	var out []*Transceiver
	for _, t := range m.nodes {
		if t == tx || t.region != tx.region || t.detached.Load() {
			continue
		}
		if m.rangeLim > 0 && tx.placed && t.placed {
			dx, dy := tx.x-t.x, tx.y-t.y
			if dx*dx+dy*dy > m.rangeLim*m.rangeLim {
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

// Property: with Attach, Place, SetRange and Detach interleaved between
// transmissions, every frame reaches exactly the peers a brute-force scan
// of the medium's nodes selects, once each and in attach order, and the
// flight recorder's Targets counts them. This is what the per-sender
// fan-out cache must never get wrong when the topology changes.
func TestDeliveryFanoutProperty(t *testing.T) {
	prop := func(ops []uint16, payloadLen uint8) bool {
		m := newTestMedium()
		rec := telemetry.NewFlightRecorder(1)
		m.SetFlightRecorder(rec)
		var nodes, got []*Transceiver
		attach := func(region Region) {
			tr := m.Attach("n"+strconv.Itoa(len(nodes)), region)
			tr.SetReceiver(func(Capture) { got = append(got, tr) })
			nodes = append(nodes, tr)
		}
		for i := 0; i < 3; i++ {
			attach(RegionEU)
		}
		m.SetRange(30)
		raw := make([]byte, int(payloadLen%50)+10)
		for _, op := range ops {
			pick, arg := nodes[int(op>>3)%len(nodes)], int(op>>8)
			switch op % 8 {
			case 0:
				attach(RegionEU)
			case 1:
				attach(RegionUS)
			case 2, 3:
				pick.Place(float64(arg%8*10), float64(arg/8%4*10))
			case 4:
				m.SetRange(float64(arg % 4 * 25)) // 0 turns the model off
			case 5:
				pick.Detach()
			default:
				if pick.detached.Load() {
					continue
				}
				want := bruteForceFanout(m, pick)
				got = got[:0]
				if err := pick.Transmit(raw); err != nil {
					return false
				}
				if len(got) != len(want) || rec.Snapshot()[0].Targets != len(want) {
					return false
				}
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
