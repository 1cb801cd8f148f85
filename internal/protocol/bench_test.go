package protocol

import "testing"

// BenchmarkFrameCodec measures one encode + decode cycle on the pooled,
// append-into-caller-buffer fast path — the exact shape the radio hot loop
// uses (AppendEncode into a pooled buffer, DecodeInto a reused frame).
// The steady state is zero-alloc.
func BenchmarkFrameCodec(b *testing.B) {
	src := NewDataFrame(HomeID(0xC0DECAFE), 1, 2, []byte{0x25, 0x01, 0xFF})
	buf := GetBuf()
	defer PutBuf(buf)
	f := new(Frame)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := src.AppendEncode((*buf)[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := DecodeInto(f, raw, ChecksumCS8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameEncodeAlloc measures the plain allocating Encode for
// comparison with the pooled path above.
func BenchmarkFrameEncodeAlloc(b *testing.B) {
	src := NewDataFrame(HomeID(0xC0DECAFE), 1, 2, []byte{0x25, 0x01, 0xFF})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}
