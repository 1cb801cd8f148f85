package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"zcover/internal/telemetry"
)

// mEncodeTooLarge counts encodes refused above the MAC limit, an error
// path. Decode outcomes are counted per medium by the receiving chipset
// (radio.Transceiver.Decode), not here.
var mEncodeTooLarge = telemetry.Default().Counter("protocol_encode_too_large_total")

// Frame is a parsed Z-Wave MAC frame. Payload holds the application layer
// (CMDCL, CMD, PARAMs); for S0/S2 traffic it holds the security
// encapsulation produced by internal/security.
type Frame struct {
	// Home is the 4-byte network home ID.
	Home HomeID
	// Src is the sending node.
	Src NodeID
	// Control carries the two frame-control bytes (P1, P2).
	Control FrameControl
	// Dst is the receiving node (or NodeBroadcast).
	Dst NodeID
	// Payload is the application-layer payload. Encode copies it; Decode
	// aliases the input slice, so callers that retain frames across buffer
	// reuse must copy.
	Payload []byte
	// Checksum selects the integrity trailer. Zero defaults to CS-8.
	Checksum ChecksumMode
}

// NewDataFrame builds an ordinary singlecast data frame with the ack bit
// set — the shape of every normal application exchange in a Z-Wave network.
func NewDataFrame(home HomeID, src, dst NodeID, payload []byte) *Frame {
	return &Frame{
		Home:     home,
		Src:      src,
		Control:  NewFrameControl(0),
		Dst:      dst,
		Payload:  payload,
		Checksum: ChecksumCS8,
	}
}

// NewAckFrame builds the transfer acknowledgement for a received frame.
func NewAckFrame(home HomeID, src, dst NodeID, seq byte) *Frame {
	fc := FrameControl{Header: HeaderAck, Sequence: seq & p2SeqMask}
	return &Frame{Home: home, Src: src, Control: fc, Dst: dst, Checksum: ChecksumCS8}
}

// checksumOrDefault resolves the zero value to CS-8.
func (f *Frame) checksumOrDefault() ChecksumMode {
	if f.Checksum == ChecksumCRC16 {
		return ChecksumCRC16
	}
	return ChecksumCS8
}

// CommandClass returns the first application payload byte, the command
// class, or 0 if the payload is empty.
func (f *Frame) CommandClass() byte {
	if len(f.Payload) == 0 {
		return 0
	}
	return f.Payload[0]
}

// Command returns the second application payload byte, the command, or 0
// if the payload has fewer than two bytes.
func (f *Frame) Command() byte {
	if len(f.Payload) < 2 {
		return 0
	}
	return f.Payload[1]
}

// Params returns the application parameters (payload bytes after CMDCL and
// CMD). The returned slice aliases the payload.
func (f *Frame) Params() []byte {
	if len(f.Payload) <= 2 {
		return nil
	}
	return f.Payload[2:]
}

// IsAck reports whether the frame is a MAC transfer acknowledgement.
func (f *Frame) IsAck() bool { return f.Control.Header == HeaderAck }

// Encode serialises the frame into a freshly allocated buffer. It fails if
// the payload cannot fit within the 64-byte MAC limit under the selected
// checksum mode. Hot paths that reuse buffers should call AppendEncode.
func (f *Frame) Encode() ([]byte, error) {
	mode := f.checksumOrDefault()
	total := HeaderSize + len(f.Payload) + mode.trailerSize()
	if total > MaxFrameSize {
		mEncodeTooLarge.Inc()
		return nil, fmt.Errorf("%w: %d-byte payload needs a %d-byte frame", ErrPayloadTooLarge, len(f.Payload), total)
	}
	return f.AppendEncode(make([]byte, 0, total))
}

// AppendEncode serialises the frame, appending the encoded bytes to dst and
// returning the extended slice. With a dst of sufficient capacity (a pooled
// GetBuf slice, or any buffer of MaxFrameSize bytes) the steady encode path
// performs no allocation. On error dst is returned unchanged.
func (f *Frame) AppendEncode(dst []byte) ([]byte, error) {
	mode := f.checksumOrDefault()
	total := HeaderSize + len(f.Payload) + mode.trailerSize()
	if total > MaxFrameSize {
		mEncodeTooLarge.Inc()
		return dst, fmt.Errorf("%w: %d-byte payload needs a %d-byte frame", ErrPayloadTooLarge, len(f.Payload), total)
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Home))
	dst = append(dst, byte(f.Src))
	p1, p2 := f.Control.encode()
	dst = append(dst, p1, p2, byte(total), byte(f.Dst))
	dst = append(dst, f.Payload...)
	return appendChecksumFrom(dst, start, mode), nil
}

// MustEncode is Encode for frames known valid by construction; it panics on
// error and exists for tests and fixed fixtures.
func (f *Frame) MustEncode() []byte {
	raw, err := f.Encode()
	if err != nil {
		panic(err)
	}
	return raw
}

// Decode parses raw under the given checksum mode. The returned frame's
// Payload aliases raw. Errors wrap the package sentinel errors with
// positional detail; hot paths that only branch on failure should use
// DecodeInto, which returns the bare sentinels without formatting.
func Decode(raw []byte, mode ChecksumMode) (*Frame, error) {
	f := &Frame{}
	if err := DecodeInto(f, raw, mode); err != nil {
		if mode != ChecksumCRC16 {
			mode = ChecksumCS8
		}
		switch {
		case errors.Is(err, ErrFrameTooShort):
			return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrFrameTooShort, len(raw), HeaderSize+mode.trailerSize())
		case errors.Is(err, ErrFrameTooLong):
			return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLong, len(raw))
		case errors.Is(err, ErrLengthMismatch):
			return nil, fmt.Errorf("%w: LEN=%d, frame is %d bytes", ErrLengthMismatch, raw[7], len(raw))
		default:
			return nil, fmt.Errorf("%w (%s)", ErrBadChecksum, mode)
		}
	}
	return f, nil
}

// DecodeInto parses raw under the given checksum mode into a caller-supplied
// frame, overwriting every field. The frame's Payload aliases raw, so the
// caller owns the aliasing hazard: a frame decoded into a reused or pooled
// buffer is only valid until that buffer's next use. Unlike Decode, failures
// return the package sentinel errors themselves with no formatting, which
// keeps the reject path of receivers and fuzzers allocation-free.
func DecodeInto(f *Frame, raw []byte, mode ChecksumMode) error {
	if mode != ChecksumCRC16 {
		mode = ChecksumCS8
	}
	if len(raw) < HeaderSize+mode.trailerSize() {
		return ErrFrameTooShort
	}
	if len(raw) > MaxFrameSize {
		return ErrFrameTooLong
	}
	if int(raw[7]) != len(raw) {
		return ErrLengthMismatch
	}
	if !verifyChecksum(raw, mode) {
		return ErrBadChecksum
	}
	*f = Frame{
		Home:     HomeID(binary.BigEndian.Uint32(raw[0:4])),
		Src:      NodeID(raw[4]),
		Control:  decodeFrameControl(raw[5], raw[6]),
		Dst:      NodeID(raw[8]),
		Payload:  raw[HeaderSize : len(raw)-mode.trailerSize()],
		Checksum: mode,
	}
	return nil
}

// SniffNetworkInfo extracts the home ID and source/destination node IDs
// from a raw frame without validating its checksum. This is exactly what
// the paper's passive scanner does (§III-B1): even S2 traffic exposes these
// MAC header fields in clear text.
func SniffNetworkInfo(raw []byte) (HomeID, NodeID, NodeID, bool) {
	if len(raw) < HeaderSize {
		return 0, 0, 0, false
	}
	return HomeID(binary.BigEndian.Uint32(raw[0:4])), NodeID(raw[4]), NodeID(raw[8]), true
}

// String renders a compact human-readable summary used by log files and the
// zsniff tool.
func (f *Frame) String() string {
	return fmt.Sprintf("home=%s src=%s dst=%s type=%s len=%d payload=% X",
		f.Home, f.Src, f.Dst, f.Control.Header, HeaderSize+len(f.Payload)+f.checksumOrDefault().trailerSize(), f.Payload)
}
