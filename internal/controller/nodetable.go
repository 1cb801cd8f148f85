// Package controller emulates the Z-Wave controllers of the paper's
// testbed (devices D1–D7 of Table II). Each controller model combines:
//
//   - ordinary firmware behaviour: home-ID filtering, MAC acks, NIF
//     responses, a node table (the "controller's memory" of Figs 8–11),
//     S2 sessions with paired slaves, and application responders for the
//     commands the firmware genuinely implements;
//   - the paper's fifteen vulnerability models (Table III), implemented as
//     buggy code paths keyed by CMDCL, CMD, parameter semantics, and
//     encapsulation state; and
//   - the legacy MAC-layer parsing one-days that VFuzz finds (Table V).
//
// The models are black-box from the fuzzer's point of view: everything
// observable goes through the radio or the oracle bus (the stand-in for
// the human watching the PC Controller program and the SmartThings app).
package controller

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
)

// NodeRecord is one entry of the controller's node table — the in-memory
// device database the CMDCL 0x01 attacks tamper with.
type NodeRecord struct {
	// ID is the node ID.
	ID protocol.NodeID
	// Basic, Generic, Specific are the stored device-type bytes.
	Basic, Generic, Specific byte
	// Capability and Security are the stored NIF flag bytes.
	Capability, Security byte
	// WakeupInterval is the stored wake-up interval for sleeping nodes
	// (zero when not applicable).
	WakeupInterval time.Duration
	// Classes is the stored supported-class list.
	Classes []cmdclass.ClassID
}

// clone deep-copies the record.
func (r NodeRecord) clone() NodeRecord {
	out := r
	out.Classes = append([]cmdclass.ClassID(nil), r.Classes...)
	return out
}

// NodeTable is the controller's device database, its records kept in a
// slice sorted by ID. It is not safe for concurrent use; the simulation is
// single-threaded.
type NodeTable struct {
	records []NodeRecord
}

// NewNodeTable returns an empty table.
func NewNodeTable() *NodeTable { return &NodeTable{} }

// find locates id's record, or the index where it would be inserted.
func (t *NodeTable) find(id protocol.NodeID) (int, bool) {
	return slices.BinarySearchFunc(t.records, id, func(r NodeRecord, id protocol.NodeID) int {
		return cmp.Compare(r.ID, id)
	})
}

// Put inserts or replaces a record.
func (t *NodeTable) Put(r NodeRecord) {
	if i, ok := t.find(r.ID); ok {
		t.records[i] = r.clone()
	} else {
		t.records = slices.Insert(t.records, i, r.clone())
	}
}

// Get returns the record for id.
func (t *NodeTable) Get(id protocol.NodeID) (NodeRecord, bool) {
	i, ok := t.find(id)
	if !ok {
		return NodeRecord{}, false
	}
	return t.records[i].clone(), true
}

// Delete removes the record for id, reporting whether it existed.
func (t *NodeTable) Delete(id protocol.NodeID) bool {
	i, ok := t.find(id)
	if ok {
		t.records = slices.Delete(t.records, i, i+1)
	}
	return ok
}

// Len reports the number of records.
func (t *NodeTable) Len() int { return len(t.records) }

// IDs returns the node IDs in ascending order.
func (t *NodeTable) IDs() []protocol.NodeID {
	out := make([]protocol.NodeID, len(t.records))
	for i, r := range t.records {
		out[i] = r.ID
	}
	return out
}

// rangeMask is the one-byte neighbour mask of nodes 1–8 that the range
// reports carry.
func (t *NodeTable) rangeMask() byte {
	mask := byte(0)
	for _, r := range t.records {
		if r.ID > 8 {
			break
		}
		mask |= 1 << (r.ID - 1)
	}
	return mask
}

// Snapshot deep-copies the table (used for reset and for oracle diffing).
func (t *NodeTable) Snapshot() *NodeTable {
	out := NewNodeTable()
	out.Restore(t)
	return out
}

// Restore replaces the table contents with a snapshot's, reusing the
// table's own storage (no caller holds a reference into it).
func (t *NodeTable) Restore(snap *NodeTable) {
	t.records = t.records[:0]
	for _, r := range snap.records {
		t.records = append(t.records, r.clone())
	}
}

// String renders the table the way the PC Controller program lists it.
func (t *NodeTable) String() string {
	s := ""
	for _, r := range t.records {
		s += fmt.Sprintf("node %3d: basic=0x%02X generic=0x%02X specific=0x%02X wakeup=%s\n",
			r.ID, r.Basic, r.Generic, r.Specific, r.WakeupInterval)
	}
	return s
}
