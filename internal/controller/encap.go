package controller

import (
	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
)

// Transport-encapsulation handling. Real controller firmware unwraps
// CRC-16, MULTI_CMD, and SUPERVISION encapsulations before dispatching the
// inner command — which means an encapsulated payload reaches the same
// vulnerable application parsers as a bare one. The fuzzers do not need
// this path to reproduce the paper's results, but a controller model that
// dropped encapsulated traffic would be unfaithful to the firmware the
// paper tests.

// maxEncapDepth bounds recursive unwrapping, as shipped firmware does.
const maxEncapDepth = 3

// dispatchPayload routes one application payload: it unwraps transport
// encapsulations (recursively, up to maxEncapDepth) and hands everything
// else to the vulnerability models and responders.
func (c *Controller) dispatchPayload(src protocol.NodeID, payload []byte, depth int) {
	if len(payload) < 2 {
		return
	}
	class := cmdclass.ClassID(payload[0])
	cmd := cmdclass.CommandID(payload[1])
	inner := payload[2:]
	if c.cov != nil {
		c.cov.OnDispatch(payload[0], payload[1], depth, false)
	}

	if depth < maxEncapDepth {
		switch {
		case class == cmdclass.ClassCRC16Encap && cmd == 0x01:
			// CRC_16_ENCAP: [inner command..., crc16(2)]. The checksum
			// covers the encapsulation header plus the inner command,
			// which is the payload up to the trailer.
			if len(inner) >= 4 {
				body, trailer := inner[:len(inner)-2], inner[len(inner)-2:]
				want := protocol.CRC16(payload[:len(payload)-2])
				if trailer[0] == byte(want>>8) && trailer[1] == byte(want) {
					c.dispatchPayload(src, body, depth+1)
					return
				}
			}
			return // bad checksum: dropped silently

		case class == cmdclass.ClassMultiCmd && cmd == 0x01:
			// MULTI_CMD_ENCAP: [count, (len, cmd...)*]. Each element is
			// dispatched independently.
			if len(inner) >= 1 {
				rest := inner[1:]
				for count := int(inner[0]); count > 0 && len(rest) >= 1; count-- {
					n := int(rest[0])
					if n == 0 || n > len(rest)-1 {
						return // malformed element: stop parsing
					}
					c.dispatchPayload(src, rest[1:1+n], depth+1)
					rest = rest[1+n:]
				}
			}
			return

		case class == cmdclass.ClassSupervision && cmd == 0x01:
			// SUPERVISION_GET: [sessionID, encapLen, inner...]. A valid
			// inner command is processed and confirmed with a supervision
			// report; anything else falls through to the plain responder.
			if len(inner) >= 2 {
				n := int(inner[1])
				if n > 0 && n <= len(inner)-2 {
					c.dispatchPayload(src, inner[2:2+n], depth+1)
					c.respond(src, cmdclass.ClassSupervision, 0x01, inner) // SUPERVISION_REPORT: success
					return
				}
			}
		}
	}

	// A NIF broadcast during add-node mode is a device asking to join;
	// during remove-node mode it is a device asking to leave.
	if class == cmdclass.ClassZWaveProtocol && cmd == cmdclass.CmdProtoNodeInfo {
		if c.inclusionActive() {
			c.handleJoin(payload[2:])
			return
		}
		if c.exclusionActive() {
			c.handleLeave(src)
			return
		}
	}

	params := payload[2:]
	if c.checkBugs(src, class, cmd, params) {
		return
	}
	// Stateful writes the firmware implements without replying.
	if class == cmdclass.ClassAssociation && len(params) >= 2 {
		switch cmd {
		case 0x01: // ASSOCIATION_SET
			c.associate(params[0], protocol.NodeID(params[1]))
			return
		case 0x04: // ASSOCIATION_REMOVE
			c.disassociate(params[0], protocol.NodeID(params[1]))
			return
		}
	}
	c.respond(src, class, cmd, params)
}
