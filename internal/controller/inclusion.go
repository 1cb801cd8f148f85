package controller

import (
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/device"
	"zcover/internal/protocol"
)

// Over-the-air inclusion (the controller side). The host asks the
// controller to enter add-node mode (Serial API ADD_NODE_TO_NETWORK or the
// hub app's "add device"); the controller then listens promiscuously for
// a joining device's NIF broadcast, assigns the next free node ID, records
// the device, and answers with ASSIGN_IDS.

// AddNodeWindow is how long add-node mode stays armed by default.
const AddNodeWindow = 60 * time.Second

// AddNodeMode arms inclusion for the window. While armed, the radio
// accepts foreign-home broadcasts (the joining device does not share the
// network's home ID yet).
func (c *Controller) AddNodeMode(window time.Duration) {
	if window <= 0 {
		window = AddNodeWindow
	}
	c.inclusionUntil = c.clock.Now().Add(window)
	c.node.SetLearnMode(true)
	c.clock.Schedule(window, func() {
		if !c.inclusionActive() {
			c.node.SetLearnMode(false)
		}
	})
}

// inclusionActive reports whether add-node mode is armed.
func (c *Controller) inclusionActive() bool {
	return c.clock.Now().Before(c.inclusionUntil)
}

// RemoveNodeMode arms exclusion for the window: the next device that
// broadcasts its NIF in learn mode is removed from the table and told to
// reset to factory defaults (node ID 0, its own random home ID again —
// modelled as adopting the unassigned ID).
func (c *Controller) RemoveNodeMode(window time.Duration) {
	if window <= 0 {
		window = AddNodeWindow
	}
	c.exclusionUntil = c.clock.Now().Add(window)
	c.node.SetLearnMode(true)
	c.clock.Schedule(window, func() {
		if !c.inclusionActive() && !c.exclusionActive() {
			c.node.SetLearnMode(false)
		}
	})
}

// exclusionActive reports whether remove-node mode is armed.
func (c *Controller) exclusionActive() bool {
	return c.clock.Now().Before(c.exclusionUntil)
}

// handleLeave processes a NIF broadcast while remove-node mode is armed:
// the announcing device is excluded.
func (c *Controller) handleLeave(src protocol.NodeID) {
	if !src.IsUnicast() || src == c.node.ID() {
		return
	}
	if !c.table.Delete(src) {
		return // not ours
	}
	delete(c.wakeupStore, src)
	delete(c.sessions, src)
	c.exclusionUntil = time.Time{}
	c.node.SetLearnMode(false)
	// ASSIGN_IDS with node 0: "you are no longer part of any network".
	payload := []byte{
		byte(cmdclass.ClassZWaveProtocol), byte(cmdclass.CmdProtoAssignIDs),
		0x00, 0x00, 0x00, 0x00, 0x00,
	}
	_ = c.node.Send(protocol.NodeBroadcast, payload)
}

// LastIncluded reports the node ID assigned by the most recent inclusion
// (zero when none happened).
func (c *Controller) LastIncluded() protocol.NodeID { return c.lastIncluded }

// handleJoin processes a NIF broadcast while add-node mode is armed.
func (c *Controller) handleJoin(params []byte) {
	// NIF payload layout after class+cmd: capability, security, properties,
	// basic, generic, specific, classes...
	if len(params) < 6 {
		return
	}
	newID := c.nextFreeNodeID()
	if newID == protocol.NodeUnassigned {
		return // table full
	}
	rec := NodeRecord{
		ID:         newID,
		Capability: params[0],
		Security:   params[1],
		Basic:      params[3],
		Generic:    params[4],
		Specific:   params[5],
	}
	for _, b := range params[6:] {
		rec.Classes = append(rec.Classes, cmdclass.ClassID(b))
	}
	c.table.Put(rec)
	c.lastIncluded = newID
	c.inclusionUntil = time.Time{} // one join per arming
	c.node.SetLearnMode(false)
	_ = c.node.Send(protocol.NodeBroadcast, device.AssignIDsPayload(newID, c.profile.Home))
}

// nextFreeNodeID allocates the lowest unused unicast node ID.
func (c *Controller) nextFreeNodeID() protocol.NodeID {
	for id := protocol.NodeID(2); id <= protocol.MaxUnicastNode; id++ {
		if _, used := c.table.find(id); !used {
			return id
		}
	}
	return protocol.NodeUnassigned
}
