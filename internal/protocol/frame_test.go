package protocol

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCS8KnownVector(t *testing.T) {
	// XOR chain seeded with 0xFF: 0xFF ^ 0x01 ^ 0x02 ^ 0x03 = 0xFF.
	if got := CS8([]byte{0x01, 0x02, 0x03}); got != 0xFF {
		t.Fatalf("CS8 = %#02x, want 0xFF", got)
	}
	if got := CS8(nil); got != 0xFF {
		t.Fatalf("CS8(nil) = %#02x, want seed 0xFF", got)
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// G.9959 test vector: CRC-16/AUG-CCITT over "123456789" is 0xE5CC.
	if got := CRC16([]byte("123456789")); got != 0xE5CC {
		t.Fatalf("CRC16 = %#04x, want 0xE5CC", got)
	}
}

func TestCRC16DetectsSingleBitFlip(t *testing.T) {
	data := []byte{0xCB, 0x95, 0xA3, 0x4A, 0x0F, 0x41, 0x00, 0x0D, 0x01, 0x20, 0x01, 0xFF}
	orig := CRC16(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if CRC16(data) == orig {
				t.Fatalf("bit flip at byte %d bit %d not detected", i, bit)
			}
			data[i] ^= 1 << bit
		}
	}
}

func TestFrameEncodeLayout(t *testing.T) {
	f := NewDataFrame(0xCB95A34A, 0x0F, 0x01, []byte{0x20, 0x01, 0xFF})
	raw := f.MustEncode()
	want := []byte{
		0xCB, 0x95, 0xA3, 0x4A, // home ID
		0x0F,       // src
		0x41, 0x00, // frame control: singlecast + ack-req, seq 0
		0x0D,             // LEN = 13
		0x01,             // dst
		0x20, 0x01, 0xFF, // BASIC SET 0xFF
	}
	if !bytes.Equal(raw[:len(raw)-1], want) {
		t.Fatalf("encoded frame = % X, want % X + CS", raw, want)
	}
	if raw[len(raw)-1] != CS8(raw[:len(raw)-1]) {
		t.Fatal("trailing byte is not the CS-8 checksum")
	}
}

func TestFrameRoundTripCS8(t *testing.T) {
	f := NewDataFrame(0xE7DE3F3D, 0x01, 0x02, []byte{0x62, 0x01, 0xFF, 0x00})
	got, err := Decode(f.MustEncode(), ChecksumCS8)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Home != f.Home || got.Src != f.Src || got.Dst != f.Dst {
		t.Fatalf("round trip header mismatch: got %+v want %+v", got, f)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip payload = % X, want % X", got.Payload, f.Payload)
	}
}

func TestFrameRoundTripCRC16(t *testing.T) {
	f := NewDataFrame(0xCD007171, 0x01, 0x05, []byte{0x86, 0x13, 0x01})
	f.Checksum = ChecksumCRC16
	got, err := Decode(f.MustEncode(), ChecksumCRC16)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("payload = % X, want % X", got.Payload, f.Payload)
	}
	if got.Checksum != ChecksumCRC16 {
		t.Fatalf("Checksum = %v, want CRC-16", got.Checksum)
	}
}

func TestDecodeRejectsShortFrame(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}, ChecksumCS8); !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("err = %v, want ErrFrameTooShort", err)
	}
}

func TestDecodeRejectsOverlongFrame(t *testing.T) {
	raw := make([]byte, MaxFrameSize+1)
	if _, err := Decode(raw, ChecksumCS8); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("err = %v, want ErrFrameTooLong", err)
	}
}

func TestDecodeRejectsLengthMismatch(t *testing.T) {
	raw := NewDataFrame(1, 1, 2, []byte{0x20, 0x02}).MustEncode()
	raw[7]++ // corrupt LEN
	if _, err := Decode(raw, ChecksumCS8); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestDecodeRejectsBadChecksum(t *testing.T) {
	raw := NewDataFrame(1, 1, 2, []byte{0x20, 0x02}).MustEncode()
	raw[len(raw)-1] ^= 0xA5
	if _, err := Decode(raw, ChecksumCS8); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestEncodeRejectsOversizedPayload(t *testing.T) {
	f := NewDataFrame(1, 1, 2, make([]byte, MaxPayloadCS8+1))
	if _, err := f.Encode(); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("err = %v, want ErrPayloadTooLarge", err)
	}
}

func TestEncodeMaxPayloadFits(t *testing.T) {
	f := NewDataFrame(1, 1, 2, make([]byte, MaxPayloadCS8))
	raw, err := f.Encode()
	if err != nil {
		t.Fatalf("Encode at max payload: %v", err)
	}
	if len(raw) != MaxFrameSize {
		t.Fatalf("frame = %d bytes, want %d", len(raw), MaxFrameSize)
	}
	f.Checksum = ChecksumCRC16
	if _, err := f.Encode(); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatal("CRC-16 frame should not fit one extra byte over the CS-8 max")
	}
}

func TestAckFrameRoundTrip(t *testing.T) {
	ack := NewAckFrame(0xF4C3754D, 0x01, 0x0F, 0x0B)
	got, err := Decode(ack.MustEncode(), ChecksumCS8)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.IsAck() {
		t.Fatalf("decoded frame not recognised as ack: %+v", got.Control)
	}
	if got.Control.Sequence != 0x0B {
		t.Fatalf("sequence = %#x, want 0x0B", got.Control.Sequence)
	}
}

func TestFrameControlFlagsRoundTrip(t *testing.T) {
	cases := []FrameControl{
		{Header: HeaderSinglecast, AckRequested: true, Sequence: 5},
		{Header: HeaderMulticast, LowPower: true, Sequence: 15},
		{Header: HeaderAck, SpeedModified: true},
		{Header: HeaderRouted, Beam: true, Sequence: 9},
	}
	for _, fc := range cases {
		p1, p2 := fc.encode()
		got := decodeFrameControl(p1, p2)
		if got != fc {
			t.Errorf("frame control %+v round-tripped to %+v", fc, got)
		}
	}
}

func TestAccessorsOnShortPayloads(t *testing.T) {
	f := &Frame{}
	if f.CommandClass() != 0 || f.Command() != 0 || f.Params() != nil {
		t.Fatal("accessors on empty payload should return zero values")
	}
	f.Payload = []byte{0x25}
	if f.CommandClass() != 0x25 || f.Command() != 0 {
		t.Fatal("single-byte payload accessors wrong")
	}
	f.Payload = []byte{0x25, 0x02, 0xAA}
	if f.CommandClass() != 0x25 || f.Command() != 0x02 || !bytes.Equal(f.Params(), []byte{0xAA}) {
		t.Fatal("three-byte payload accessors wrong")
	}
}

func TestSniffNetworkInfo(t *testing.T) {
	raw := NewDataFrame(0xCB95A34A, 0x0F, 0x01, []byte{0x20, 0x01}).MustEncode()
	home, src, dst, ok := SniffNetworkInfo(raw)
	if !ok || home != 0xCB95A34A || src != 0x0F || dst != 0x01 {
		t.Fatalf("SniffNetworkInfo = %v %v %v %v", home, src, dst, ok)
	}
	// Corrupted checksum must not matter: the passive scanner reads headers
	// from any capture, including damaged ones.
	raw[len(raw)-1] ^= 0xFF
	if _, _, _, ok := SniffNetworkInfo(raw); !ok {
		t.Fatal("SniffNetworkInfo should ignore checksum damage")
	}
	if _, _, _, ok := SniffNetworkInfo(raw[:HeaderSize-1]); ok {
		t.Fatal("SniffNetworkInfo should reject truncated headers")
	}
}

func TestHomeIDString(t *testing.T) {
	if got := HomeID(0xCB95A34A).String(); got != "CB95A34A" {
		t.Fatalf("HomeID.String() = %q", got)
	}
	if got := HomeID(0x0000000F).String(); got != "0000000F" {
		t.Fatalf("HomeID.String() = %q, want zero-padded", got)
	}
}

func TestNodeIDPredicates(t *testing.T) {
	if NodeUnassigned.IsUnicast() || NodeBroadcast.IsUnicast() || NodeID(233).IsUnicast() {
		t.Fatal("reserved IDs must not be unicast")
	}
	if !NodeID(1).IsUnicast() || !MaxUnicastNode.IsUnicast() {
		t.Fatal("valid IDs must be unicast")
	}
}

// randomFrame builds an arbitrary-but-encodable frame from fuzz inputs.
func randomFrame(r *rand.Rand) *Frame {
	payload := make([]byte, r.Intn(MaxPayloadCRC16+1))
	r.Read(payload)
	mode := ChecksumCS8
	if r.Intn(2) == 1 {
		mode = ChecksumCRC16
	}
	return &Frame{
		Home:     HomeID(r.Uint32()),
		Src:      NodeID(r.Intn(256)),
		Control:  NewFrameControl(byte(r.Intn(16))),
		Dst:      NodeID(r.Intn(256)),
		Payload:  payload,
		Checksum: mode,
	}
}

// Property: every encodable frame decodes back to itself.
func TestFrameRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomFrame(r)
		raw, err := f.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(raw, f.Checksum)
		if err != nil {
			return false
		}
		return got.Home == f.Home && got.Src == f.Src && got.Dst == f.Dst &&
			bytes.Equal(got.Payload, f.Payload) &&
			reflect.DeepEqual(got.Control, f.Control)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-byte corruption of an encoded frame is rejected by
// Decode (LEN, checksum or both catch it) — except corruption that the
// checksum itself cannot see, which for CS-8 and CRC-16 over <64 bytes
// cannot happen with a single flipped byte.
func TestFrameCorruptionDetectedProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	prop := func(seed int64, pos, flip byte) bool {
		if flip == 0 {
			flip = 0x01
		}
		r := rand.New(rand.NewSource(seed))
		f := randomFrame(r)
		raw := f.MustEncode()
		idx := int(pos) % len(raw)
		raw[idx] ^= flip
		_, err := Decode(raw, f.Checksum)
		return err != nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	f := NewDataFrame(0xCB95A34A, 0x0F, 0x01, []byte{0x62, 0x01, 0xFF, 0x00, 0x01})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	raw := NewDataFrame(0xCB95A34A, 0x0F, 0x01, []byte{0x62, 0x01, 0xFF, 0x00, 0x01}).MustEncode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw, ChecksumCS8); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseHeaderErrorsAreBareSentinels pins what a malformed routed or
// multicast header yields: ErrNotRouted or ErrBadRoute itself, with no
// formatted wrapper allocated per rejected frame.
func TestParseHeaderErrorsAreBareSentinels(t *testing.T) {
	routed := []struct {
		payload []byte
		want    error
	}{
		{[]byte{0x00}, ErrNotRouted},
		{[]byte{0x00, 0x00, 0x20}, ErrBadRoute},       // no repeaters
		{[]byte{0x00, 0x13, 0x02}, ErrBadRoute},       // hop past the count
		{[]byte{0x00, 0x30, 0x02, 0x03}, ErrBadRoute}, // truncated list
		{[]byte{0x00, 0x10, 0xFF, 0x20}, ErrBadRoute}, // broadcast repeater
	}
	for _, tc := range routed {
		if _, _, err := ParseRoutedPayload(tc.payload); err != tc.want {
			t.Errorf("ParseRoutedPayload(% X) = %v, want %v", tc.payload, err, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { _, _, _ = ParseRoutedPayload(tc.payload) }); n != 0 {
			t.Errorf("ParseRoutedPayload(% X) allocates %.0f times", tc.payload, n)
		}
	}
	multicast := []struct {
		payload []byte
		want    error
	}{
		{[]byte{0x01}, ErrNotRouted},
		{[]byte{0x00, 0x20}, ErrBadRoute},
		{[]byte{0x05, 0x01}, ErrBadRoute},
	}
	for _, tc := range multicast {
		if _, _, err := ParseMulticastPayload(tc.payload); err != tc.want {
			t.Errorf("ParseMulticastPayload(% X) = %v, want %v", tc.payload, err, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { _, _, _ = ParseMulticastPayload(tc.payload) }); n != 0 {
			t.Errorf("ParseMulticastPayload(% X) allocates %.0f times", tc.payload, n)
		}
	}
}
