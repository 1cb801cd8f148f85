package radio

import (
	"sync"

	"zcover/internal/protocol"
)

// Sniffer is a promiscuous capture device: the software analogue of the
// Yardstick One in receive mode. It records every frame on its region,
// regardless of home ID, with simulated timestamps — the raw material of
// ZCover's passive scanner.
type Sniffer struct {
	trx *Transceiver

	mu       sync.Mutex
	captures []Capture
	limit    int
}

// NewSniffer attaches a promiscuous capture device to the medium. limit
// bounds the retained capture ring (0 means unbounded).
func NewSniffer(m *Medium, region Region, limit int) *Sniffer {
	s := &Sniffer{limit: limit}
	s.trx = m.Attach("sniffer", region)
	s.trx.SetReceiver(s.onFrame)
	return s
}

// onFrame records a capture, evicting the oldest beyond the limit. The
// incoming Raw and its decode are only valid for the duration of this
// callback, so retention requires a Clone.
func (s *Sniffer) onFrame(c Capture) {
	c = c.Clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.captures = append(s.captures, c)
	if s.limit > 0 && len(s.captures) > s.limit {
		s.captures = s.captures[len(s.captures)-s.limit:]
	}
}

// Captures returns a copy of the retained captures in arrival order.
func (s *Sniffer) Captures() []Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Capture, len(s.captures))
	copy(out, s.captures)
	return out
}

// Clear discards retained captures.
func (s *Sniffer) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.captures = nil
}

// Close detaches the sniffer from the air.
func (s *Sniffer) Close() { s.trx.Detach() }

// Networks summarises the home IDs observed so far and the node IDs seen
// communicating under each — the passive-scanning result of §III-B1.
func (s *Sniffer) Networks() map[protocol.HomeID][]protocol.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[protocol.HomeID]map[protocol.NodeID]bool)
	for _, c := range s.captures {
		home, src, dst, ok := protocol.SniffNetworkInfo(c.Raw)
		if !ok {
			continue
		}
		if seen[home] == nil {
			seen[home] = make(map[protocol.NodeID]bool)
		}
		if src.IsUnicast() {
			seen[home][src] = true
		}
		if dst.IsUnicast() {
			seen[home][dst] = true
		}
	}
	out := make(map[protocol.HomeID][]protocol.NodeID, len(seen))
	for home, nodes := range seen {
		ids := make([]protocol.NodeID, 0, len(nodes))
		for id := range nodes {
			ids = append(ids, id)
		}
		sortNodeIDs(ids)
		out[home] = ids
	}
	return out
}

// sortNodeIDs sorts in place (tiny slices; insertion sort avoids an import).
func sortNodeIDs(ids []protocol.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
