package controller

import (
	"testing"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/oracle"
	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/vtime"
)

// dispatchRig attaches a controller with the given profile and a bare
// transceiver to inject raw frames from node 0x0F with.
func dispatchRig(profile Profile) (*vtime.SimClock, *radio.Transceiver) {
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	New(m, radio.RegionUS, profile, &oracle.Bus{})
	return clock, m.Attach("raw", radio.RegionUS)
}

// BenchmarkDispatch measures the controller's receive path end to end
// (frame decode, bug-model evaluation, responder lookup, reply), letting
// the medium's airtime events fire after each frame as a campaign does.
func BenchmarkDispatch(b *testing.B) {
	profile, _ := ProfileByIndex("D1")
	clock, trx := dispatchRig(profile)
	raw := protocol.NewDataFrame(profile.Home, 0x0F, 0x01, []byte{0x86, 0x11}).MustEncode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := trx.Transmit(raw); err != nil {
			b.Fatal(err)
		}
		clock.Advance(time.Second)
	}
}

// TestDispatchSteadyStateAllocs holds the reply path to zero garbage:
// once warm, receiving any of the 53 responding commands, or one wrapped
// in CRC_16_ENCAP, and sending its reply allocates nothing.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	profile, _ := ProfileByIndex("D1")
	profile.Bugs, profile.MACBugs = nil, nil
	clock, trx := dispatchRig(profile)
	var payloads [][]byte
	for _, sc := range SupportedCommands() {
		payloads = append(payloads, []byte{byte(sc.Class), byte(sc.Cmd), 0x01})
	}
	crcEncap := []byte{byte(cmdclass.ClassCRC16Encap), 0x01, 0x20, 0x02}
	crc := protocol.CRC16(crcEncap)
	payloads = append(payloads, append(crcEncap, byte(crc>>8), byte(crc)))
	basicReports := 0
	trx.SetReceiver(func(c radio.Capture) {
		if f, err := c.Frame(); err == nil && len(f.Payload) >= 2 && f.Payload[0] == 0x20 && f.Payload[1] == 0x03 {
			basicReports++
		}
	})
	for _, payload := range payloads {
		raw := protocol.NewDataFrame(profile.Home, 0x0F, 0x01, payload).MustEncode()
		allocs := testing.AllocsPerRun(100, func() {
			if err := trx.Transmit(raw); err != nil {
				t.Fatal(err)
			}
			clock.Advance(time.Second)
		})
		if allocs != 0 {
			t.Errorf("dispatching % X allocates %.2f times per frame, want 0", payload, allocs)
		}
	}
	// BASIC_GET answers 101 times bare and 101 times through CRC_16_ENCAP,
	// so the wrapped frame passed its checksum.
	if basicReports != 2*101 {
		t.Errorf("saw %d BASIC_REPORTs, want %d", basicReports, 2*101)
	}
}
