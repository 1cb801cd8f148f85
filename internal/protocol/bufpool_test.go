package protocol

import (
	"bytes"
	"testing"
)

// TestGetBufAppendEncodeRoundtrip pins the zero-alloc encode contract: a
// pooled buffer holds the encoded frame, DecodeInto parses it back, and the
// decoded fields match the source. This is the exact shape of the device
// send path.
func TestGetBufAppendEncodeRoundtrip(t *testing.T) {
	src := NewDataFrame(HomeID(0xC0DECAFE), 5, 9, []byte{0x25, 0x01, 0xFF})
	buf := GetBuf()
	defer PutBuf(buf)
	raw, err := src.AppendEncode(*buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(*buf) != 0 {
		t.Fatalf("AppendEncode must not store back into *buf, got len %d", len(*buf))
	}
	var f Frame
	if err := DecodeInto(&f, raw, ChecksumCS8); err != nil {
		t.Fatal(err)
	}
	if f.Home != src.Home || f.Src != src.Src || f.Dst != src.Dst {
		t.Fatalf("roundtrip mismatch: got %v want %v", f, src)
	}
	if !bytes.Equal(f.Payload, src.Payload) {
		t.Fatalf("payload mismatch: %x vs %x", f.Payload, src.Payload)
	}
}

// TestGetBufReturnsEmptyFullCapacity checks the Get contract: empty slice,
// MaxFrameSize capacity, even after a previous user left bytes in it.
func TestGetBufReturnsEmptyFullCapacity(t *testing.T) {
	b := GetBuf()
	*b = append(*b, 1, 2, 3)
	PutBuf(b)
	got := GetBuf()
	defer PutBuf(got)
	if len(*got) != 0 {
		t.Fatalf("GetBuf returned non-empty slice (len %d)", len(*got))
	}
	if cap(*got) < MaxFrameSize {
		t.Fatalf("GetBuf capacity %d < MaxFrameSize %d", cap(*got), MaxFrameSize)
	}
}

// TestPutBufRejectsShrunkBuffers: a buffer whose backing array was swapped
// for something smaller than MaxFrameSize must not re-enter the pool, or a
// later AppendEncode into it would allocate mid-hot-path.
func TestPutBufRejectsShrunkBuffers(t *testing.T) {
	small := make([]byte, 0, 4)
	PutBuf(&small) // must be dropped, not pooled
	for i := 0; i < 64; i++ {
		b := GetBuf()
		if cap(*b) < MaxFrameSize {
			t.Fatalf("undersized buffer (cap %d) leaked into the pool", cap(*b))
		}
		PutBuf(b)
	}
}

// TestAppendEncodeIntoPrefixedBuffer checks the append contract when dst
// already holds bytes: the frame (and its checksum) must cover only the
// appended region, leaving the prefix intact.
func TestAppendEncodeIntoPrefixedBuffer(t *testing.T) {
	src := NewDataFrame(HomeID(0x11223344), 1, 2, []byte{0xAA})
	prefix := []byte{0xFE, 0xFD}
	out, err := src.AppendEncode(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:2], prefix) {
		t.Fatalf("prefix clobbered: %x", out[:2])
	}
	var f Frame
	if err := DecodeInto(&f, out[2:], ChecksumCS8); err != nil {
		t.Fatalf("suffix region does not decode standalone: %v", err)
	}
	if f.Home != src.Home {
		t.Fatalf("home mismatch: %08X", uint32(f.Home))
	}
}

// TestAppendEncodeErrorLeavesDstUnchanged pins the documented error
// contract: on ErrPayloadTooLarge the returned slice is dst, unmodified.
func TestAppendEncodeErrorLeavesDstUnchanged(t *testing.T) {
	f := NewDataFrame(HomeID(1), 1, 2, make([]byte, MaxFrameSize))
	dst := []byte{9, 9}
	out, err := f.AppendEncode(dst)
	if err == nil {
		t.Fatal("want ErrPayloadTooLarge")
	}
	if len(out) != 2 || out[0] != 9 || out[1] != 9 {
		t.Fatalf("dst modified on error: %x", out)
	}
}
