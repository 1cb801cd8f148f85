package controller

import (
	"sort"

	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
)

// classCmd keys the responder table.
type classCmd struct {
	class cmdclass.ClassID
	cmd   cmdclass.CommandID
}

// replyFunc appends an application-layer reply payload to b and returns
// the result; returning b unchanged means no reply.
type replyFunc func(c *Controller, b, params []byte) []byte

// arg returns params[i], or def when the command is too short to carry it.
func arg(params []byte, i int, def byte) byte {
	if i < len(params) {
		return params[i]
	}
	return def
}

// fixed answers every request with the same reply.
func fixed(reply ...byte) replyFunc {
	return func(_ *Controller, b, _ []byte) []byte { return append(b, reply...) }
}

// echo answers [class, cmd, first parameter, tail...], with def standing in
// for a missing first parameter (a sequence number, node or group ID).
func echo(class, cmd, def byte, tail ...byte) replyFunc {
	return func(_ *Controller, b, params []byte) []byte {
		return append(append(b, class, cmd, arg(params, 0, def)), tail...)
	}
}

// firmware answers head, the profile's two firmware-version bytes, tail.
func firmware(head []byte, tail ...byte) replyFunc {
	return func(c *Controller, b, _ []byte) []byte {
		return append(append(append(b, head...), c.profile.FirmwareVersion[:]...), tail...)
	}
}

// commandComplete answers with COMMAND_COMPLETE and a fresh sequence byte.
func commandComplete(c *Controller, b, _ []byte) []byte {
	c.nifSeq++
	return append(b, 0x01, 0x07, c.nifSeq)
}

// responders is the firmware's command-processing table: the 53 commands
// every tested controller visibly responds to. Systematic validation
// testing (§III-C2) confirms exactly this set, which is where the "CMD 53"
// column of Table V comes from. The table is identical across D1–D7: the
// differences between modern and legacy models live in the NIF (listed
// classes), not the firmware's actual reach — which is the paper's point
// about unlisted properties.
var responders = map[classCmd]replyFunc{
	// CMDCL 0x01 — hidden Z-Wave protocol class (6 commands).
	{cmdclass.ClassZWaveProtocol, cmdclass.CmdProtoRequestNodeInfo}: func(c *Controller, b, params []byte) []byte {
		// Only self-interrogation is answered; requests about other nodes
		// are for those nodes to answer.
		if id := arg(params, 0, 0x00); id != 0x00 && protocol.NodeID(id) != c.node.ID() {
			return b
		}
		return c.identity().AppendNIF(b)
	},
	{cmdclass.ClassZWaveProtocol, cmdclass.CmdProtoFindNodesInRange}: commandComplete,
	{cmdclass.ClassZWaveProtocol, cmdclass.CmdProtoGetNodesInRange}: func(c *Controller, b, _ []byte) []byte {
		return append(b, 0x01, 0x06, 0x01, c.table.rangeMask()) // RANGE_INFO
	},
	{cmdclass.ClassZWaveProtocol, 0x11}: commandComplete, // SUC_NODE_ID
	{cmdclass.ClassZWaveProtocol, 0x12}: func(_ *Controller, b, params []byte) []byte {
		result := byte(0x00)
		if arg(params, 0, 0x00) == 0x01 {
			result = 0x01
		}
		return append(b, 0x01, 0x13, result, 0x00) // SET_SUC -> SET_SUC_ACK
	},
	{cmdclass.ClassZWaveProtocol, 0x15}: commandComplete, // STATIC_ROUTE_REQUEST

	// CMDCL 0x02 — hidden manufacturer diagnostic class (2 commands).
	{cmdclass.ClassProprietaryMfg, 0x01}: func(c *Controller, b, params []byte) []byte {
		return append(append(b, 0x02, 0x02, arg(params, 0, 0x00)), c.profile.FirmwareVersion[:]...)
	},
	{cmdclass.ClassProprietaryMfg, 0x03}: echo(0x02, 0x02, 0x00, 0x00), // SELF_TEST -> DIAG_REPORT pass

	// BASIC (1).
	{cmdclass.ClassBasic, cmdclass.CmdBasicGet}: fixed(0x20, 0x03, 0x00),

	// ASSOCIATION_GRP_INFO (3).
	{cmdclass.ClassAssocGroupInfo, cmdclass.CmdAGIGroupNameGet}:   fixed(append([]byte{0x59, 0x02, 0x01, 0x08}, "Lifeline"...)...),
	{cmdclass.ClassAssocGroupInfo, cmdclass.CmdAGIGroupInfoGet}:   fixed(0x59, 0x04, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00),
	{cmdclass.ClassAssocGroupInfo, cmdclass.CmdAGICommandListGet}: fixed(0x59, 0x06, 0x01, 0x02, 0x5A, 0x01),

	// ZWAVEPLUS_INFO (1).
	{cmdclass.ClassZWavePlusInfo, 0x01}: fixed(0x5E, 0x02, 0x02, 0x05, 0x00, 0x01, 0x00, 0x01, 0x00),

	// SUPERVISION (1).
	{cmdclass.ClassSupervision, 0x01}: func(_ *Controller, b, params []byte) []byte {
		return append(b, 0x6C, 0x02, arg(params, 0, 0x00)&0x3F, 0xFF, 0x00)
	},

	// MANUFACTURER_SPECIFIC (2).
	{cmdclass.ClassManufacturerSpec, 0x04}: firmware([]byte{0x72, 0x05, 0x00, 0x86, 0x00, 0x01}),
	{cmdclass.ClassManufacturerSpec, 0x06}: echo(0x72, 0x07, 0x01, 0x04, 0xDE, 0xAD, 0xBE, 0xEF),

	// POWERLEVEL (2).
	{cmdclass.ClassPowerlevel, 0x02}: fixed(0x73, 0x03, 0x00, 0x00),
	{cmdclass.ClassPowerlevel, 0x05}: fixed(0x73, 0x06, 0x02, 0x01, 0x00, 0x00),

	// INCLUSION_CONTROLLER (1).
	{cmdclass.ClassInclusionCtrl, 0x01}: func(_ *Controller, b, params []byte) []byte {
		return append(b, 0x74, 0x02, arg(params, 1, 0x01), 0x01)
	},

	// FIRMWARE_UPDATE_MD (2).
	{cmdclass.ClassFirmwareUpdateMD, cmdclass.CmdFirmwareMDGet}:      firmware([]byte{0x7A, 0x02, 0x00, 0x86}, 0xAB, 0xCD),
	{cmdclass.ClassFirmwareUpdateMD, cmdclass.CmdFirmwareRequestGet}: fixed(0x7A, 0x04, 0x00), // REQUEST_REPORT: invalid combination

	// ASSOCIATION (2). SET (0x01) and REMOVE (0x04) mutate the stored
	// groups in dispatchPayload; only the Get-style commands reply.
	{cmdclass.ClassAssociation, 0x02}: func(c *Controller, b, params []byte) []byte {
		group := arg(params, 0, 0x01)
		b = append(b, 0x85, 0x03, group, 0x05, 0x00)
		for _, m := range c.associations[group] {
			b = append(b, byte(m))
		}
		return b
	},
	{cmdclass.ClassAssociation, 0x05}: fixed(0x85, 0x06, 0x01),

	// VERSION (4).
	{cmdclass.ClassVersion, cmdclass.CmdVersionGet}: firmware([]byte{0x86, 0x12, 0x01, 0x07, 0x0F}),
	{cmdclass.ClassVersion, cmdclass.CmdVersionCommandClassGet}: func(_ *Controller, b, params []byte) []byte {
		if len(params) < 1 {
			return b
		}
		// Reaching here means the class is supported (bug 10 consumed the
		// unsupported case).
		return append(b, 0x86, 0x14, params[0], 0x01)
	},
	{cmdclass.ClassVersion, 0x15}:                          fixed(0x86, 0x16, 0x07),
	{cmdclass.ClassVersion, cmdclass.CmdVersionZWaveSWGet}: firmware([]byte{0x86, 0x18}, 0x00, 0x00, 0x00),

	// SECURITY (S0) (3).
	{cmdclass.ClassSecurity0, cmdclass.CmdS0SupportedGet}: fixed(0x98, 0x03, 0x00, 0x62, 0x63),
	{cmdclass.ClassSecurity0, cmdclass.CmdS0SchemeGet}:    fixed(0x98, 0x05, 0x00),
	{cmdclass.ClassSecurity0, cmdclass.CmdS0NonceGet}: func(c *Controller, b, _ []byte) []byte {
		c.nifSeq++
		n := c.nifSeq
		return append(b, 0x98, 0x80, n, n^0x5A, n^0xC3, n+1, n+2, n+3, n+4, n+5)
	},

	// SECURITY_2 (2).
	{cmdclass.ClassSecurity2, cmdclass.CmdS2NonceGet}: func(c *Controller, b, params []byte) []byte {
		seq := arg(params, 0, 0x00)
		b = append(b, 0x9F, 0x02, seq, 0x01)
		for i := byte(0); i < 16; i++ {
			b = append(b, seq^i^byte(c.stats.Replies))
		}
		return b
	},
	{cmdclass.ClassSecurity2, cmdclass.CmdS2KexGet}: fixed(0x9F, 0x05, 0x00, 0x02, 0x01, 0x07),

	// CONFIGURATION (2) — implemented but unlisted.
	{cmdclass.ClassConfiguration, 0x05}: echo(0x70, 0x06, 0x01, 0x01, 0x00),
	{cmdclass.ClassConfiguration, 0x08}: fixed(0x70, 0x09, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00),

	// WAKE_UP (1) — implemented but unlisted.
	{cmdclass.ClassWakeUp, cmdclass.CmdWakeUpIntervalGet}: fixed(0x84, 0x06, 0x00, 0x0E, 0x10, 0x01),

	// NETWORK_MANAGEMENT_INCLUSION (6) — implemented but unlisted.
	{cmdclass.ClassNetworkMgmtIncl, 0x07}: echo(0x34, 0x08, 0x00, 0x07, 0x00), // FAILED_NODE_REMOVE: not failed
	{cmdclass.ClassNetworkMgmtIncl, 0x09}: echo(0x34, 0x0A, 0x00, 0x07, 0x00), // FAILED_NODE_REPLACE: reject
	{cmdclass.ClassNetworkMgmtIncl, 0x0B}: echo(0x34, 0x0C, 0x00, 0x22, 0x00), // NEIGHBOR_UPDATE: done
	{cmdclass.ClassNetworkMgmtIncl, 0x0D}: echo(0x34, 0x0E, 0x00, 0x00, 0x00), // RETURN_ROUTE_ASSIGN
	{cmdclass.ClassNetworkMgmtIncl, 0x0F}: echo(0x34, 0x10, 0x00, 0x00, 0x00), // RETURN_ROUTE_DELETE
	{cmdclass.ClassNetworkMgmtIncl, 0x18}: echo(0x34, 0x19, 0x00, 0x01, 0x00), // S2_BOOTSTRAP

	// NETWORK_MANAGEMENT_BASIC (4) — implemented but unlisted.
	{0x4D, 0x01}: echo(0x4D, 0x02, 0x00, 0x00), // LEARN_MODE_SET: refused
	{0x4D, 0x03}: echo(0x4D, 0x04, 0x00, 0x00), // NETWORK_UPDATE_REQUEST
	{0x4D, 0x06}: echo(0x4D, 0x07, 0x00, 0x07), // DEFAULT_SET: unauthorized
	{0x4D, 0x08}: echo(0x4D, 0x09, 0x00, 0x00, 0x11, 0x22, 0x33, 0x44),

	// NETWORK_MANAGEMENT_PROXY (3) — implemented but unlisted.
	{0x52, 0x01}: func(c *Controller, b, params []byte) []byte {
		return append(b, 0x52, 0x02, arg(params, 0, 0x00), 0x00, 0x01, c.table.rangeMask())
	},
	{0x52, 0x03}: echo(0x52, 0x04, 0x00, 0x00),
	{0x52, 0x05}: echo(0x52, 0x06, 0x00, 0x01, 0x00),

	// NETWORK_MANAGEMENT_PRIMARY (1) — implemented but unlisted.
	{0x54, 0x01}: echo(0x54, 0x02, 0x00, 0x07, 0x00), // reject

	// NM_INSTALLATION_MAINTENANCE (2) — implemented but unlisted.
	{0x67, 0x02}: echo(0x67, 0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01),
	{0x67, 0x04}: echo(0x67, 0x05, 0x01, 0x00),

	// INDICATOR (2) — implemented but unlisted.
	{cmdclass.ClassIndicator, 0x02}: fixed(0x87, 0x03, 0x00),
	{cmdclass.ClassIndicator, 0x04}: fixed(0x87, 0x05, 0x50, 0x00, 0x01),
}

// respond consults the firmware command table and sends the reply, if
// any, back to src. The reply is built in a pooled buffer, not one kept on
// the Controller: sending delivers synchronously, and a receiver that
// answers can re-enter respond before this call returns. Node.Send does
// not keep the payload, so the buffer goes back once Send returns.
func (c *Controller) respond(src protocol.NodeID, class cmdclass.ClassID, cmd cmdclass.CommandID, params []byte) {
	fn, ok := responders[classCmd{class, cmd}]
	if !ok {
		return
	}
	buf := protocol.GetBuf()
	defer protocol.PutBuf(buf)
	if reply := fn(c, *buf, params); len(reply) > 0 {
		c.stats.Replies++
		_ = c.node.Send(src, reply)
	}
}

// SupportedCommandCount reports the number of commands the firmware
// visibly responds to — the quantity systematic validation testing
// measures (53 in Table V).
func SupportedCommandCount() int { return len(responders) }

// SupportedCommands lists the responding (class, command) pairs sorted by
// class then command.
func SupportedCommands() []struct {
	Class cmdclass.ClassID
	Cmd   cmdclass.CommandID
} {
	out := make([]struct {
		Class cmdclass.ClassID
		Cmd   cmdclass.CommandID
	}, 0, len(responders))
	for k := range responders {
		out = append(out, struct {
			Class cmdclass.ClassID
			Cmd   cmdclass.CommandID
		}{k.class, k.cmd})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Cmd < out[j].Cmd
	})
	return out
}
