package protocol

import "fmt"

// Multicast addressing (G.9959 multicast frames). The destination field of
// a multicast frame is unused; instead the payload carries a node bitmask
// prefix naming every addressee:
//
//	[maskLen] [mask bytes...] <APL payload>
const (
	// MaxMulticastMaskLen bounds the bitmask (29 bytes cover all 232 nodes).
	MaxMulticastMaskLen = 29
)

// EncodeMulticastPayload prepends the addressee bitmask to an application
// payload. The mask is sized to the highest addressed node.
func EncodeMulticastPayload(addressees []NodeID, apl []byte) ([]byte, error) {
	if len(addressees) == 0 {
		return nil, fmt.Errorf("%w: no addressees", ErrBadRoute)
	}
	maskLen := 0
	for _, id := range addressees {
		if !id.IsUnicast() {
			return nil, fmt.Errorf("%w: addressee %s", ErrBadRoute, id)
		}
		if n := (int(id)-1)/8 + 1; n > maskLen {
			maskLen = n
		}
	}
	mask := make([]byte, maskLen)
	for _, id := range addressees {
		mask[(id-1)/8] |= 1 << ((id - 1) % 8)
	}
	out := make([]byte, 0, 1+maskLen+len(apl))
	out = append(out, byte(maskLen))
	out = append(out, mask...)
	return append(out, apl...), nil
}

// ParseMulticastPayload splits a multicast payload into addressees and the
// application payload. The returned APL aliases payload. As in
// ParseRoutedPayload, a malformed header yields ErrNotRouted or
// ErrBadRoute itself, so rejecting a fuzzed frame allocates nothing.
func ParseMulticastPayload(payload []byte) ([]NodeID, []byte, error) {
	if len(payload) < 2 {
		return nil, nil, ErrNotRouted
	}
	maskLen := int(payload[0])
	if maskLen == 0 || maskLen > MaxMulticastMaskLen || len(payload) < 1+maskLen {
		return nil, nil, ErrBadRoute
	}
	var ids []NodeID
	for i, b := range payload[1 : 1+maskLen] {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				ids = append(ids, NodeID(i*8+bit+1))
			}
		}
	}
	return ids, payload[1+maskLen:], nil
}

// NewMulticastFrame builds a multicast data frame.
func NewMulticastFrame(home HomeID, src NodeID, addressees []NodeID, apl []byte) (*Frame, error) {
	payload, err := EncodeMulticastPayload(addressees, apl)
	if err != nil {
		return nil, err
	}
	f := NewDataFrame(home, src, NodeBroadcast, payload)
	f.Control.Header = HeaderMulticast
	f.Control.AckRequested = false // multicast frames are unacknowledged
	return f, nil
}
