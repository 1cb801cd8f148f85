package protocol

import "sync"

// Frame-buffer pool for the per-frame hot path. A Table V campaign moves
// hundreds of thousands of frames through encode, the radio medium, and
// decode; recycling the 64-byte raw buffer keeps the steady send path free
// of garbage. The pool is safe for concurrent use (parallel fleet
// campaigns share it) and strictly optional: every API also accepts plain
// allocated values. Receive paths decode into the radio medium's shared,
// pooled frame (radio.Capture.Frame).

// bufPool recycles raw-frame byte buffers. Entries are pointers to slices so
// Put does not itself allocate a header escape.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, MaxFrameSize)
		return &b
	},
}

// GetBuf returns a pooled buffer: *p is an empty slice with MaxFrameSize
// capacity. Append into *p (AppendEncode, copy) — frames never exceed
// MaxFrameSize, so appends stay within the backing array and *p need not
// be stored back. Release with PutBuf when the bytes are no longer
// referenced by anyone. The pointer form keeps Get/Put allocation-free
// (returning a bare slice would re-box its header on every Put).
func GetBuf() *[]byte {
	p := bufPool.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

// PutBuf returns a buffer obtained from GetBuf to the pool. The caller
// must guarantee nothing still aliases its backing array: a retained
// Capture, Frame.Payload, or log entry pointing into it becomes invalid
// the moment the buffer is reused.
func PutBuf(p *[]byte) {
	if cap(*p) < MaxFrameSize {
		return
	}
	bufPool.Put(p)
}
