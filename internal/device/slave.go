package device

import (
	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
)

// Z-Wave device-type bytes used in node information frames.
const (
	// BasicTypeController marks a (portable or static) controller node.
	BasicTypeController byte = 0x01
	// BasicTypeStaticController marks a mains-powered static controller.
	BasicTypeStaticController byte = 0x02
	// BasicTypeSlave marks an ordinary slave node.
	BasicTypeSlave byte = 0x03
	// BasicTypeRoutingSlave marks a routing slave node.
	BasicTypeRoutingSlave byte = 0x04

	// GenericTypeController is the generic controller device class.
	GenericTypeController byte = 0x02
	// GenericTypeSwitchBinary is the binary switch device class.
	GenericTypeSwitchBinary byte = 0x10
	// GenericTypeEntryControl is the door-lock device class.
	GenericTypeEntryControl byte = 0x40

	// Capability flag bits of the NODE_INFO capability byte.
	CapListening byte = 0x80
	CapRouting   byte = 0x40

	// Security flag bits of the NODE_INFO security byte.
	SecS0 byte = 0x01
	SecS2 byte = 0x02
)

// Identity is the information a node advertises in its node information
// frame (NIF).
type Identity struct {
	// Basic, Generic, Specific are the Z-Wave device-type bytes.
	Basic, Generic, Specific byte
	// Capability holds the listening/routing flags.
	Capability byte
	// Security holds the supported security-class flags.
	Security byte
	// Classes lists the command classes the node advertises as supported
	// — the "listed" properties of the paper's fingerprinting phase.
	Classes []cmdclass.ClassID
}

// NIFPayload builds the NODE_INFO application payload the node sends in
// response to a REQUEST_NODE_INFO: the protocol-class frame carrying
// capability, security, type bytes and the advertised class list.
func (id Identity) NIFPayload() []byte {
	return id.AppendNIF(make([]byte, 0, 8+len(id.Classes)))
}

// AppendNIF appends the NODE_INFO payload NIFPayload builds to b.
func (id Identity) AppendNIF(b []byte) []byte {
	b = append(b,
		byte(cmdclass.ClassZWaveProtocol), byte(cmdclass.CmdProtoNodeInfo),
		id.Capability, id.Security, 0x00, id.Basic, id.Generic, id.Specific)
	for _, c := range id.Classes {
		b = append(b, byte(c))
	}
	return b
}

// ParseNIF decodes a NODE_INFO payload back into an Identity. It is the
// inverse of NIFPayload and is what the active scanner uses on responses.
func ParseNIF(payload []byte) (Identity, bool) {
	if len(payload) < 8 ||
		payload[0] != byte(cmdclass.ClassZWaveProtocol) ||
		payload[1] != byte(cmdclass.CmdProtoNodeInfo) {
		return Identity{}, false
	}
	id := Identity{
		Capability: payload[2],
		Security:   payload[3],
		Basic:      payload[5],
		Generic:    payload[6],
		Specific:   payload[7],
	}
	for _, b := range payload[8:] {
		id.Classes = append(id.Classes, cmdclass.ClassID(b))
	}
	return id, true
}

// IsNIFRequest reports whether an application payload is a
// REQUEST_NODE_INFO probe, and if so which node it interrogates
// (0 means "the receiver").
func IsNIFRequest(payload []byte) (protocol.NodeID, bool) {
	if len(payload) < 2 ||
		payload[0] != byte(cmdclass.ClassZWaveProtocol) ||
		payload[1] != byte(cmdclass.CmdProtoRequestNodeInfo) {
		return 0, false
	}
	if len(payload) >= 3 {
		return protocol.NodeID(payload[2]), true
	}
	return 0, true
}

// NIFRequestPayload builds a REQUEST_NODE_INFO probe for the given node.
func NIFRequestPayload(target protocol.NodeID) []byte {
	return []byte{byte(cmdclass.ClassZWaveProtocol), byte(cmdclass.CmdProtoRequestNodeInfo), byte(target)}
}

// NOPPayload is the liveness-probe payload (COMMAND_CLASS_NO_OPERATION).
// A live node MAC-acks it; a hung controller stays silent — exactly the
// liveness check the paper's feedback loop uses.
func NOPPayload() []byte { return []byte{0x00} }
