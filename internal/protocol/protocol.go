// Package protocol implements the Z-Wave (ITU-T G.9959) frame layer used by
// every other component of this repository: the simulated radio carries
// encoded frames, device and controller models parse them, and the ZCover
// and VFuzz fuzzers craft them.
//
// The wire format follows Figure 1 of the ZCover paper:
//
//	MAC:  H-ID(4) SRC(1) P1(1) P2(1) LEN(1) DST(1) <APL payload> CS
//	APL:  CMDCL(1) CMD(1) PARAM1..PARAMn
//
// LEN covers the whole MAC frame including the checksum. Two checksum
// schemes exist in deployed networks: the legacy 8-bit XOR checksum (CS-8,
// R1/R2 data rates) and CRC-16/CCITT (R3, 100 kbit/s). Both are implemented.
//
// # Concurrency and pooling
//
// All package-level functions and Frame methods are safe for concurrent
// use on distinct frames; a Frame itself is a plain struct with no internal
// locking. The steady encode/decode path is allocation-free when callers
// use the pooled variants: AppendEncode writes into a caller-supplied
// buffer (GetBuf/PutBuf recycle MaxFrameSize buffers through a shared
// sync.Pool, safe for concurrent use across parallel fleet campaigns) and
// DecodeInto parses into a caller-supplied Frame. Ownership rule: a
// decoded Frame's Payload aliases the raw buffer it was parsed from, so a
// buffer must not be returned with PutBuf while any Frame, Capture, or log
// entry still references its bytes.
// Encode and Decode remain as allocating conveniences for cold paths.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

// Frame size limits from the G.9959 MAC (and §II-A of the paper).
const (
	// MaxFrameSize is the maximum total MAC frame length in bytes.
	MaxFrameSize = 64
	// HeaderSize is the fixed MAC header length preceding the payload:
	// home ID (4) + source (1) + frame control (2) + length (1) + destination (1).
	HeaderSize = 9
	// MaxPayloadCS8 is the maximum application payload under an 8-bit checksum.
	MaxPayloadCS8 = MaxFrameSize - HeaderSize - 1
	// MaxPayloadCRC16 is the maximum application payload under CRC-16.
	MaxPayloadCRC16 = MaxFrameSize - HeaderSize - 2
)

// HomeID identifies a Z-Wave network. It is assigned to a controller at
// manufacturing time and shared with slaves at inclusion.
type HomeID uint32

// String renders the home ID the way Z-Wave tooling prints it (8 hex digits).
func (h HomeID) String() string {
	return fmt.Sprintf("%08X", uint32(h))
}

// NodeID identifies a node within a network. Valid unicast IDs are 1..232;
// 0xFF is the broadcast destination.
type NodeID byte

// Reserved node IDs.
const (
	// NodeUnassigned marks a node that has not been included in a network.
	NodeUnassigned NodeID = 0x00
	// NodeBroadcast addresses every node in the network.
	NodeBroadcast NodeID = 0xFF
	// MaxUnicastNode is the largest assignable unicast node ID.
	MaxUnicastNode NodeID = 232
)

// IsUnicast reports whether n is a valid unicast node ID.
func (n NodeID) IsUnicast() bool { return n >= 1 && n <= MaxUnicastNode }

// String renders the node ID as Z-Wave tooling does (decimal).
func (n NodeID) String() string { return strconv.Itoa(int(n)) }

// ChecksumMode selects the frame integrity scheme.
type ChecksumMode int

// Supported checksum modes. Enum starts at 1 so the zero value is invalid
// and cannot be mistaken for a real mode.
const (
	// ChecksumCS8 is the legacy 8-bit XOR checksum used at R1/R2 rates.
	ChecksumCS8 ChecksumMode = iota + 1
	// ChecksumCRC16 is the CRC-16/CCITT checksum used at the R3 rate.
	ChecksumCRC16
)

// String implements fmt.Stringer.
func (m ChecksumMode) String() string {
	switch m {
	case ChecksumCS8:
		return "CS-8"
	case ChecksumCRC16:
		return "CRC-16"
	default:
		return "ChecksumMode(" + strconv.Itoa(int(m)) + ")"
	}
}

// trailerSize returns the checksum length in bytes for the mode.
func (m ChecksumMode) trailerSize() int {
	if m == ChecksumCRC16 {
		return 2
	}
	return 1
}

// Codec-level errors. Decode wraps these with positional detail; callers
// match with errors.Is.
var (
	// ErrFrameTooShort indicates fewer bytes than a minimal MAC frame.
	ErrFrameTooShort = errors.New("protocol: frame too short")
	// ErrFrameTooLong indicates a frame above MaxFrameSize.
	ErrFrameTooLong = errors.New("protocol: frame exceeds 64-byte MAC limit")
	// ErrLengthMismatch indicates the LEN field disagrees with the byte count.
	ErrLengthMismatch = errors.New("protocol: LEN field does not match frame size")
	// ErrBadChecksum indicates checksum verification failed.
	ErrBadChecksum = errors.New("protocol: checksum mismatch")
	// ErrPayloadTooLarge indicates an application payload that cannot fit.
	ErrPayloadTooLarge = errors.New("protocol: application payload too large")
)

// CS8 computes the legacy Z-Wave 8-bit checksum over data: an XOR chain
// seeded with 0xFF, as specified by ITU-T G.9959 for R1/R2 frames.
func CS8(data []byte) byte {
	cs := byte(0xFF)
	for _, b := range data {
		cs ^= b
	}
	return cs
}

// CRC16 computes the CRC-16/CCITT (polynomial 0x1021, initial value 0x1D0F)
// used by G.9959 R3 frames.
func CRC16(data []byte) uint16 {
	crc := uint16(0x1D0F)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// appendChecksumFrom appends the mode's checksum over buf[start:] to buf.
// The start offset lets AppendEncode write after existing bytes in dst.
func appendChecksumFrom(buf []byte, start int, mode ChecksumMode) []byte {
	if mode == ChecksumCRC16 {
		return binary.BigEndian.AppendUint16(buf, CRC16(buf[start:]))
	}
	return append(buf, CS8(buf[start:]))
}

// verifyChecksum checks the trailing checksum of raw under the mode.
func verifyChecksum(raw []byte, mode ChecksumMode) bool {
	n := mode.trailerSize()
	if len(raw) < n {
		return false
	}
	body, trailer := raw[:len(raw)-n], raw[len(raw)-n:]
	if mode == ChecksumCRC16 {
		return binary.BigEndian.Uint16(trailer) == CRC16(body)
	}
	return trailer[0] == CS8(body)
}
