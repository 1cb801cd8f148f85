package protocol

import (
	"errors"
	"fmt"
)

// Source routing (G.9959 §8.1.4-style routed frames). Z-Wave is a mesh:
// when two nodes are out of direct RF range, the sender prepends a routing
// header naming up to four repeaters. Every repeater in turn retransmits
// the frame, advancing the hop index, until the final repeater's
// transmission reaches the destination.
//
// On the wire the routing header rides at the front of the payload area of
// a frame whose frame-control header type is "routed":
//
//	[status] [hops] [repeater1..repeaterN] <APL payload>
//
// status carries the direction and failure flags; hops packs the repeater
// count in the high nibble and the current hop index in the low nibble.

// MaxRepeaters is the longest allowed repeater list.
const MaxRepeaters = 4

// Routing status bits.
const (
	routeDirInbound byte = 0x01 // response travelling back to the origin
	routeFailed     byte = 0x02 // a repeater reported delivery failure
)

// RouteHeader is the parsed routing header of a routed frame.
type RouteHeader struct {
	// Inbound marks a frame travelling back along the route.
	Inbound bool
	// Failed marks a route-failure report.
	Failed bool
	// Repeaters is the source route, in forwarding order.
	Repeaters []NodeID
	// Hop is the index of the repeater whose turn it is to transmit;
	// Hop == len(Repeaters) means the frame is on its final leg.
	Hop int
	// Reserved preserves undefined status bits so that forwarding a frame
	// does not silently normalise them.
	Reserved byte
}

// Routing errors.
var (
	// ErrBadRoute indicates an unusable repeater list.
	ErrBadRoute = errors.New("protocol: invalid source route")
	// ErrNotRouted indicates a payload without a routing header.
	ErrNotRouted = errors.New("protocol: not a routed payload")
)

// EncodeRoutedPayload prepends the routing header to an application
// payload.
func EncodeRoutedPayload(rh RouteHeader, apl []byte) ([]byte, error) {
	if len(rh.Repeaters) == 0 || len(rh.Repeaters) > MaxRepeaters {
		return nil, fmt.Errorf("%w: %d repeaters", ErrBadRoute, len(rh.Repeaters))
	}
	if rh.Hop < 0 || rh.Hop > len(rh.Repeaters) {
		return nil, fmt.Errorf("%w: hop %d of %d", ErrBadRoute, rh.Hop, len(rh.Repeaters))
	}
	for _, r := range rh.Repeaters {
		if !r.IsUnicast() {
			return nil, fmt.Errorf("%w: repeater %s", ErrBadRoute, r)
		}
	}
	status := rh.Reserved &^ (routeDirInbound | routeFailed)
	if rh.Inbound {
		status |= routeDirInbound
	}
	if rh.Failed {
		status |= routeFailed
	}
	out := make([]byte, 0, 2+len(rh.Repeaters)+len(apl))
	out = append(out, status, byte(len(rh.Repeaters))<<4|byte(rh.Hop))
	for _, r := range rh.Repeaters {
		out = append(out, byte(r))
	}
	return append(out, apl...), nil
}

// ParseRoutedPayload splits a routed frame's payload into its routing
// header and the application payload. The returned APL aliases payload.
// A malformed header yields ErrNotRouted or ErrBadRoute itself, unwrapped:
// fuzzed MAC headers make this a per-frame path, and a formatted error
// would allocate on every rejected frame.
func ParseRoutedPayload(payload []byte) (RouteHeader, []byte, error) {
	if len(payload) < 3 {
		return RouteHeader{}, nil, ErrNotRouted
	}
	status := payload[0]
	count := int(payload[1] >> 4)
	hop := int(payload[1] & 0x0F)
	if count == 0 || count > MaxRepeaters || hop > count {
		return RouteHeader{}, nil, ErrBadRoute
	}
	if len(payload) < 2+count {
		return RouteHeader{}, nil, ErrBadRoute
	}
	rh := RouteHeader{
		Inbound:  status&routeDirInbound != 0,
		Failed:   status&routeFailed != 0,
		Hop:      hop,
		Reserved: status &^ (routeDirInbound | routeFailed),
	}
	for i := 0; i < count; i++ {
		r := NodeID(payload[2+i])
		if !r.IsUnicast() {
			return RouteHeader{}, nil, ErrBadRoute
		}
		rh.Repeaters = append(rh.Repeaters, r)
	}
	return rh, payload[2+count:], nil
}

// NewRoutedFrame builds a routed data frame carrying apl via the given
// repeaters (hop 0: the first repeater transmits next).
func NewRoutedFrame(home HomeID, src, dst NodeID, repeaters []NodeID, apl []byte) (*Frame, error) {
	payload, err := EncodeRoutedPayload(RouteHeader{Repeaters: repeaters}, apl)
	if err != nil {
		return nil, err
	}
	f := NewDataFrame(home, src, dst, payload)
	f.Control.Header = HeaderRouted
	f.Control.AckRequested = false // routed hops use route-level acks
	return f, nil
}
