package controller

import (
	"math/rand"
	"testing"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/device"
	"zcover/internal/oracle"
	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/security"
	"zcover/internal/vtime"
)

// testRig is a controller under test plus an attacker node and oracle log.
type testRig struct {
	clock    *vtime.SimClock
	medium   *radio.Medium
	ctrl     *Controller
	attacker *device.Node
	bus      *oracle.Bus
	events   []oracle.Event
	replies  [][]byte
	acks     int
}

func newRig(t *testing.T, index string) *testRig {
	t.Helper()
	profile, ok := ProfileByIndex(index)
	if !ok {
		t.Fatalf("unknown profile %s", index)
	}
	return newRigProfile(profile)
}

// newRigProfile is newRig for an explicit (possibly edited) profile.
func newRigProfile(profile Profile) *testRig {
	r := &testRig{clock: vtime.NewSimClock(), bus: &oracle.Bus{}}
	r.medium = radio.NewMedium(r.clock)
	r.bus.Subscribe(func(e oracle.Event) { r.events = append(r.events, e) })
	r.ctrl = New(r.medium, radio.RegionUS, profile, r.bus)
	r.attacker = device.NewNode(device.Config{
		Medium: r.medium, Region: radio.RegionUS,
		Home: profile.Home, ID: 0x0F, Name: "attacker",
	})
	r.attacker.Handler = func(f *protocol.Frame) { r.replies = append(r.replies, append([]byte{}, f.Payload...)) }
	r.attacker.OnAck = func(*protocol.Frame) { r.acks++ }

	// Post-inclusion state: a door lock (node 2, with a wake-up interval)
	// and a switch (node 3), as in the paper's smart-home testbed.
	r.ctrl.IncludeNode(NodeRecord{
		ID: 2, Basic: device.BasicTypeSlave, Generic: device.GenericTypeEntryControl,
		Specific: 0x03, Capability: device.CapRouting, Security: device.SecS2,
		WakeupInterval: time.Hour,
		Classes:        []cmdclass.ClassID{cmdclass.ClassDoorLock},
	})
	r.ctrl.IncludeNode(NodeRecord{
		ID: 3, Basic: device.BasicTypeRoutingSlave, Generic: device.GenericTypeSwitchBinary,
		Specific: 0x01, Capability: device.CapListening,
		Classes: []cmdclass.ClassID{cmdclass.ClassSwitchBinary},
	})
	return r
}

// inject sends an application payload from the attacker to the controller.
func (r *testRig) inject(t *testing.T, payload []byte) {
	t.Helper()
	if err := r.attacker.Send(0x01, payload); err != nil {
		t.Fatal(err)
	}
}

func (r *testRig) lastEventKind() (oracle.Kind, bool) {
	if len(r.events) == 0 {
		return 0, false
	}
	return r.events[len(r.events)-1].Kind, true
}

func TestProfilesMatchTableIV(t *testing.T) {
	profiles := Profiles()
	if len(profiles) != 7 {
		t.Fatalf("testbed has %d controllers, want 7", len(profiles))
	}
	wantHomes := map[string]protocol.HomeID{
		"D1": 0xE7DE3F3D, "D2": 0xCD007171, "D3": 0xCB51722D,
		"D4": 0xC7E9DD54, "D5": 0xF4C3754D, "D6": 0xCB95A34A, "D7": 0xEDC87EE4,
	}
	wantListed := map[string]int{"D1": 17, "D2": 17, "D3": 15, "D4": 17, "D5": 15, "D6": 17, "D7": 15}
	for _, p := range profiles {
		if p.Home != wantHomes[p.Index] {
			t.Errorf("%s home = %s, want %s", p.Index, p.Home, wantHomes[p.Index])
		}
		if len(p.Listed) != wantListed[p.Index] {
			t.Errorf("%s lists %d classes, want %d", p.Index, len(p.Listed), wantListed[p.Index])
		}
	}
}

func TestProfilesBugSetsMatchTableIII(t *testing.T) {
	counts := map[string]int{}
	for _, p := range Profiles() {
		counts[p.Index] = len(p.Bugs)
		// Bug 05 only on hubs; bugs 06/13 only on USB sticks.
		isHub := p.Host == HostSmartApp
		if p.HasBug(Bug05AppDoS) != isHub {
			t.Errorf("%s bug05 presence wrong", p.Index)
		}
		if p.HasBug(Bug06HostCrash) == isHub || p.HasBug(Bug13HostDoS) == isHub {
			t.Errorf("%s bug06/13 presence wrong", p.Index)
		}
	}
	for idx, n := range counts {
		isHub := idx == "D6" || idx == "D7"
		want := 14
		if isHub {
			want = 13
		}
		if n != want {
			t.Errorf("%s carries %d bugs, want %d", idx, n, want)
		}
	}
}

func TestProfilesMACBugCountsMatchTableV(t *testing.T) {
	want := map[string]int{"D1": 1, "D2": 3, "D3": 0, "D4": 4, "D5": 0, "D6": 0, "D7": 0}
	for _, p := range Profiles() {
		if got := len(p.MACBugs); got != want[p.Index] {
			t.Errorf("%s has %d MAC bugs, want %d", p.Index, got, want[p.Index])
		}
	}
}

func TestSupportedCommandCountIs53(t *testing.T) {
	if got := SupportedCommandCount(); got != 53 {
		t.Fatalf("firmware responds to %d commands, want 53 (Table V)", got)
	}
	cmds := SupportedCommands()
	if len(cmds) != 53 {
		t.Fatalf("SupportedCommands lists %d", len(cmds))
	}
	for i := 1; i < len(cmds); i++ {
		if cmds[i].Class < cmds[i-1].Class {
			t.Fatal("SupportedCommands not sorted")
		}
	}
}

func TestControllerAnswersNOPWithAck(t *testing.T) {
	r := newRig(t, "D1")
	r.inject(t, device.NOPPayload())
	if r.acks != 1 {
		t.Fatalf("acks = %d, want 1", r.acks)
	}
}

func TestControllerAnswersNIFRequest(t *testing.T) {
	r := newRig(t, "D4")
	r.inject(t, device.NIFRequestPayload(0x01))
	if len(r.replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(r.replies))
	}
	id, ok := device.ParseNIF(r.replies[0])
	if !ok {
		t.Fatalf("reply not a NIF: % X", r.replies[0])
	}
	if len(id.Classes) != 17 {
		t.Fatalf("D4 NIF lists %d classes, want 17 (Table IV)", len(id.Classes))
	}
	if id.Basic != device.BasicTypeStaticController {
		t.Errorf("NIF basic type = %#02x", id.Basic)
	}
}

func TestControllerNIFRequestForOtherNodeUnanswered(t *testing.T) {
	r := newRig(t, "D4")
	r.inject(t, device.NIFRequestPayload(0x02))
	if len(r.replies) != 0 {
		t.Fatalf("controller answered a NIF request for node 2: % X", r.replies[0])
	}
}

func TestRespondersAnswerSafeProbes(t *testing.T) {
	r := newRig(t, "D1")
	cases := [][]byte{
		{0x86, 0x11},             // VERSION_GET
		{0x86, 0x13, 0x20},       // VERSION_COMMAND_CLASS_GET, supported class
		{0x72, 0x04},             // MANUFACTURER_SPECIFIC_GET
		{0x9F, 0x01, 0x05},       // S2 NONCE_GET, benign sequence
		{0x98, 0x40},             // S0 NONCE_GET
		{0x59, 0x03, 0x40, 0x01}, // AGI GROUP_INFO_GET, legal flags
		{0x01, 0x02, 0x01},       // REQUEST_NODE_INFO (self)
		{0x02, 0x01, 0x00},       // proprietary DIAG_GET
		{0x70, 0x05, 0x01},       // CONFIGURATION_GET (unlisted class)
		{0x52, 0x01, 0x07},       // NM proxy NODE_LIST_GET (unlisted class)
	}
	for _, payload := range cases {
		before := len(r.replies)
		r.inject(t, payload)
		if len(r.replies) != before+1 {
			t.Errorf("no reply to % X", payload)
		}
	}
	if len(r.events) != 0 {
		t.Fatalf("safe probes fired %d anomalies: %v", len(r.events), r.events)
	}
}

func TestUnsupportedClassSilent(t *testing.T) {
	r := newRig(t, "D1")
	r.inject(t, []byte{0x62, 0x02}) // DOOR_LOCK_OPERATION_GET: slave class
	if len(r.replies) != 0 {
		t.Fatalf("controller replied to unsupported class: % X", r.replies[0])
	}
}

func TestBug01MemoryCorruption(t *testing.T) {
	r := newRig(t, "D6")
	// Rewrite the lock (node 2, generic 0x40) as a routing slave (Fig 8).
	r.inject(t, []byte{0x01, 0x0D, 0x02, 0x00, 0x00, 0x00, 0x04, 0x10, 0x01})
	if k, _ := r.lastEventKind(); k != oracle.NodeTampered {
		t.Fatalf("event = %v, want NodeTampered", r.events)
	}
	rec, ok := r.ctrl.Table().Get(0x02)
	if !ok || rec.Generic != 0x10 {
		t.Fatalf("record not tampered: %+v", rec)
	}
}

func TestBug02RogueInsertion(t *testing.T) {
	r := newRig(t, "D1")
	for _, id := range []byte{10, 200} {
		r.inject(t, []byte{0x01, 0x0D, id, 0x80, 0x00, 0x00, 0x01, 0x02, 0x01})
	}
	if r.ctrl.Table().Len() != 5 { // self + 2 slaves + 2 rogues
		t.Fatalf("table has %d entries: %v", r.ctrl.Table().Len(), r.ctrl.Table().IDs())
	}
	rogues := 0
	for _, e := range r.events {
		if e.Kind == oracle.RogueNodeAdded {
			rogues++
		}
	}
	if rogues != 2 {
		t.Fatalf("rogue events = %d, want 2", rogues)
	}
}

func TestBug03NodeRemoval(t *testing.T) {
	r := newRig(t, "D2")
	r.inject(t, []byte{0x01, 0x0D, 0x02})
	if _, ok := r.ctrl.Table().Get(0x02); ok {
		t.Fatal("node 2 still in table")
	}
	if k, _ := r.lastEventKind(); k != oracle.NodeRemoved {
		t.Fatalf("events = %v", r.events)
	}
	// Removing a non-existent node does nothing.
	n := len(r.events)
	r.inject(t, []byte{0x01, 0x0D, 0x77})
	if len(r.events) != n {
		t.Fatal("ghost removal fired an event")
	}
}

func TestBug04DatabaseOverwrite(t *testing.T) {
	r := newRig(t, "D3")
	r.inject(t, []byte{0x01, 0x0D, 0xFF})
	if k, _ := r.lastEventKind(); k != oracle.DatabaseOverwritten {
		t.Fatalf("events = %v", r.events)
	}
	ids := r.ctrl.Table().IDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 10 || ids[2] != 200 {
		t.Fatalf("table after overwrite = %v", ids)
	}
}

func TestBug05AppDoSOnlyOnHubs(t *testing.T) {
	// Mutated self-interrogation: node ID + trailing junk.
	attack := []byte{0x01, 0x02, 0x01, 0xAA}
	hub := newRig(t, "D6")
	hub.inject(t, attack)
	if k, _ := hub.lastEventKind(); k != oracle.AppDoS {
		t.Fatalf("D6 events = %v", hub.events)
	}
	if hub.ctrl.Host().Healthy() {
		t.Fatal("app still healthy after DoS")
	}
	usb := newRig(t, "D1")
	usb.inject(t, attack)
	if len(usb.events) != 0 {
		t.Fatalf("D1 fired %v for a hub-only bug", usb.events)
	}
}

func TestBug06HostCrashOnlyOnUSBSticks(t *testing.T) {
	attack := []byte{0x9F, 0x01, 0xFF} // reserved sequence number
	usb := newRig(t, "D5")
	usb.inject(t, attack)
	if k, _ := usb.lastEventKind(); k != oracle.HostCrash {
		t.Fatalf("D5 events = %v", usb.events)
	}
	if !usb.ctrl.Host().Crashed() {
		t.Fatal("host not crashed")
	}
	hub := newRig(t, "D7")
	hub.inject(t, attack)
	if len(hub.events) != 0 {
		t.Fatalf("D7 fired %v for a USB-only bug", hub.events)
	}
}

func TestHangBugsDurationsMatchTableIII(t *testing.T) {
	cases := []struct {
		payload []byte
		class   byte
		cmd     byte
		dur     time.Duration
	}{
		{[]byte{0x5A, 0x01, 0x00}, 0x5A, 0x01, 68 * time.Second},       // bug 07
		{[]byte{0x59, 0x03, 0x07, 0x01}, 0x59, 0x03, 67 * time.Second}, // bug 08
		{[]byte{0x7A, 0x01, 0xAA}, 0x7A, 0x01, 63 * time.Second},       // bug 09
		{[]byte{0x86, 0x13, 0xE0}, 0x86, 0x13, 4 * time.Second},        // bug 10
		{[]byte{0x59, 0x05, 0x07, 0x01}, 0x59, 0x05, 62 * time.Second}, // bug 11
		{[]byte{0x01, 0x04, 0x1D}, 0x01, 0x04, 4 * time.Minute},        // bug 14
		{[]byte{0x7A, 0x03, 0x00, 0x86}, 0x7A, 0x03, 59 * time.Second}, // bug 15
	}
	for _, tc := range cases {
		r := newRig(t, "D4")
		r.inject(t, tc.payload)
		if len(r.events) != 1 {
			t.Errorf("payload % X: %d events", tc.payload, len(r.events))
			continue
		}
		e := r.events[0]
		if e.Kind != oracle.ServiceHang || e.Class != tc.class || e.Cmd != tc.cmd || e.Duration != tc.dur {
			t.Errorf("payload % X: event %+v", tc.payload, e)
		}
		if !r.ctrl.Busy() {
			t.Errorf("payload % X: controller not busy", tc.payload)
		}
	}
}

func TestHungControllerIgnoresTrafficThenRecovers(t *testing.T) {
	r := newRig(t, "D1")
	r.inject(t, []byte{0x86, 0x13, 0xE0}) // bug 10: 4 s hang
	acksBefore := r.acks
	r.inject(t, device.NOPPayload())
	if r.acks != acksBefore {
		t.Fatal("hung controller acked a NOP")
	}
	r.clock.Advance(5 * time.Second)
	r.inject(t, device.NOPPayload())
	if r.acks != acksBefore+1 {
		t.Fatal("controller did not recover after the hang window")
	}
}

func TestBug10RequiresUnsupportedClass(t *testing.T) {
	r := newRig(t, "D1")
	r.inject(t, []byte{0x86, 0x13, 0x20}) // BASIC: supported -> normal reply
	if len(r.events) != 0 {
		t.Fatalf("supported-class version query fired %v", r.events)
	}
	if len(r.replies) != 1 {
		t.Fatal("no version report")
	}
}

func TestBug12WakeupCleared(t *testing.T) {
	r := newRig(t, "D7")
	r.inject(t, []byte{0x01, 0x0D, 0x02, 0x00})
	if k, _ := r.lastEventKind(); k != oracle.WakeupCleared {
		t.Fatalf("events = %v", r.events)
	}
	rec, _ := r.ctrl.Table().Get(0x02)
	if rec.WakeupInterval != 0 {
		t.Fatal("wakeup interval not cleared")
	}
	// The switch (node 3) has no wake-up interval: no event.
	n := len(r.events)
	r.inject(t, []byte{0x01, 0x0D, 0x03, 0x00})
	if len(r.events) != n {
		t.Fatal("wakeup-clear fired for a node without an interval")
	}
}

func TestBug13HostDoS(t *testing.T) {
	r := newRig(t, "D2")
	r.inject(t, []byte{0x73, 0x04, 0x03, 0x05, 0xFF, 0xFF})
	if k, _ := r.lastEventKind(); k != oracle.HostDoS {
		t.Fatalf("events = %v", r.events)
	}
	if r.ctrl.Host().Healthy() {
		t.Fatal("host still healthy")
	}
	// Benign test-node set does not trigger.
	r.ctrl.Reset()
	r.events = nil
	r.inject(t, []byte{0x73, 0x04, 0x03, 0x05, 0x00, 0x10})
	if len(r.events) != 0 {
		t.Fatalf("benign powerlevel test fired %v", r.events)
	}
}

func TestMACBugsOnlyOnAffectedDevices(t *testing.T) {
	overflow := func(home protocol.HomeID) []byte {
		raw := protocol.NewDataFrame(home, 0x0F, 0x01, []byte{0x20, 0x02}).MustEncode()
		raw[7] = 0x3F // LEN larger than the frame
		return raw
	}
	d4, _ := ProfileByIndex("D4")
	r := newRig(t, "D4")
	trx := r.medium.Attach("raw-attacker", radio.RegionUS)
	if err := trx.Transmit(overflow(d4.Home)); err != nil {
		t.Fatal(err)
	}
	if k, _ := r.lastEventKind(); k != oracle.MACParsingFault {
		t.Fatalf("D4 events = %v", r.events)
	}

	d3rig := newRig(t, "D3")
	d3, _ := ProfileByIndex("D3")
	trx3 := d3rig.medium.Attach("raw-attacker", radio.RegionUS)
	if err := trx3.Transmit(overflow(d3.Home)); err != nil {
		t.Fatal(err)
	}
	if len(d3rig.events) != 0 {
		t.Fatalf("D3 has no MAC bugs but fired %v", d3rig.events)
	}
}

func TestMACBugsRequireMatchingHomeID(t *testing.T) {
	r := newRig(t, "D4")
	raw := protocol.NewDataFrame(0x12345678, 0x0F, 0x01, []byte{0x20, 0x02}).MustEncode()
	raw[7] = 0x3F
	trx := r.medium.Attach("raw-attacker", radio.RegionUS)
	if err := trx.Transmit(raw); err != nil {
		t.Fatal(err)
	}
	if len(r.events) != 0 {
		t.Fatal("MAC bug fired across home IDs")
	}
}

func TestMACBugVariants(t *testing.T) {
	d4, _ := ProfileByIndex("D4")
	build := func(mod func([]byte) []byte) []byte {
		raw := protocol.NewDataFrame(d4.Home, 0x0F, 0x01, []byte{0x20, 0x02}).MustEncode()
		return mod(raw)
	}
	cases := map[MACBug][]byte{
		MACBugRuntAck: build(func(raw []byte) []byte {
			raw[5] = 0x03 // ack header with payload
			return raw
		}),
		MACBugRoutedHeader: func() []byte {
			f := protocol.NewDataFrame(d4.Home, 0x0F, 0x01, nil)
			f.Control.Header = protocol.HeaderRouted
			return f.MustEncode()
		}(),
		MACBugEmptyMulticast: func() []byte {
			f := protocol.NewDataFrame(d4.Home, 0x0F, 0x01, nil) // no address mask
			f.Control.Header = protocol.HeaderMulticast
			return f.MustEncode()
		}(),
	}
	for bug, raw := range cases {
		r := newRig(t, "D4")
		trx := r.medium.Attach("raw-attacker", radio.RegionUS)
		r.clock.Advance(10 * time.Second)
		if err := trx.Transmit(raw); err != nil {
			t.Fatal(err)
		}
		if len(r.events) != 1 || r.events[0].Kind != oracle.MACParsingFault || MACBug(r.events[0].Cmd) != bug {
			t.Errorf("%v: events = %v", bug, r.events)
		}
	}
}

func TestResetRestoresState(t *testing.T) {
	r := newRig(t, "D1")
	r.inject(t, []byte{0x01, 0x0D, 0xFF}) // wipe table
	r.inject(t, []byte{0x9F, 0x01, 0xFF}) // crash host
	r.inject(t, []byte{0x86, 0x13, 0xE0}) // hang
	r.ctrl.Reset()
	if r.ctrl.Table().Len() != 3 {
		t.Fatalf("table after reset = %v", r.ctrl.Table().IDs())
	}
	if !r.ctrl.Host().Healthy() || r.ctrl.Busy() {
		t.Fatal("host/busy state not reset")
	}
}

func TestS2SessionTrafficConsumed(t *testing.T) {
	r := newRig(t, "D6")
	p, err := device.PairS2(rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	r.ctrl.InstallSession(0x0F, p.DeviceSession) // attacker node plays the slave here
	aad := r.ctrl.aad(0x0F, 0x01)
	encap, err := p.ControllerSession.Encapsulate(security.FlowBtoA, aad, []byte{0x62, 0x03, 0xFF, 0, 0, 0xFE, 0xFE})
	if err != nil {
		t.Fatal(err)
	}
	r.inject(t, encap)
	if got := r.ctrl.Stats().SecureFrames; got != 1 {
		t.Fatalf("secure frames = %d, want 1", got)
	}
}

func TestSupportsListedAndHidden(t *testing.T) {
	r := newRig(t, "D3") // legacy: 0x5E/0x6C unlisted but implemented
	for _, c := range []cmdclass.ClassID{
		cmdclass.ClassVersion, cmdclass.ClassZWaveProtocol,
		cmdclass.ClassConfiguration, cmdclass.ClassZWavePlusInfo,
	} {
		if !r.ctrl.Supports(c) {
			t.Errorf("D3 should support %s", c)
		}
	}
	if r.ctrl.Supports(cmdclass.ClassDoorLock) {
		t.Error("controller should not support DOOR_LOCK")
	}
}

func TestNodeTableSnapshotRestore(t *testing.T) {
	tbl := NewNodeTable()
	tbl.Put(NodeRecord{ID: 1, Generic: 0x02, Classes: []cmdclass.ClassID{0x20}})
	snap := tbl.Snapshot()
	tbl.Put(NodeRecord{ID: 9, Generic: 0x10})
	rec, _ := tbl.Get(1)
	rec.Generic = 0x77
	tbl.Put(rec)
	tbl.Restore(snap)
	if tbl.Len() != 1 {
		t.Fatalf("restored table has %d entries", tbl.Len())
	}
	got, _ := tbl.Get(1)
	if got.Generic != 0x02 {
		t.Fatal("restore did not revert mutation")
	}
	// Mutating a Get result must not affect the table (copy semantics).
	got.Classes[0] = 0xFF
	again, _ := tbl.Get(1)
	if again.Classes[0] == 0xFF {
		t.Fatal("Get leaked internal state")
	}
}

// TestNodeTableRandomPutDelete checks the table against a map under
// random Put/Delete: IDs stays strictly ascending and complete, Get
// returns the record last put, and the range mask covers nodes 1–8.
func TestNodeTableRandomPutDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := NewNodeTable()
	model := map[protocol.NodeID]NodeRecord{}
	for step := 0; step < 2000; step++ {
		id := protocol.NodeID(rng.Intn(40))
		if rng.Intn(3) == 0 {
			_, had := model[id]
			if got := tbl.Delete(id); got != had {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, id, got, had)
			}
			delete(model, id)
		} else {
			r := NodeRecord{ID: id, Generic: byte(step), Classes: []cmdclass.ClassID{cmdclass.ClassID(step)}}
			tbl.Put(r)
			model[id] = r
		}
		ids := tbl.IDs()
		if len(ids) != len(model) || tbl.Len() != len(model) {
			t.Fatalf("step %d: %d IDs, Len %d, want %d", step, len(ids), tbl.Len(), len(model))
		}
		mask := byte(0)
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				t.Fatalf("step %d: IDs not strictly ascending: %v", step, ids)
			}
			want, ok := model[id]
			got, found := tbl.Get(id)
			if !ok || !found || got.Generic != want.Generic || got.Classes[0] != want.Classes[0] {
				t.Fatalf("step %d: Get(%d) = %+v, want %+v", step, id, got, want)
			}
			if id >= 1 && id <= 8 {
				mask |= 1 << (id - 1)
			}
		}
		if got := tbl.rangeMask(); got != mask {
			t.Fatalf("step %d: rangeMask = %08b, want %08b", step, got, mask)
		}
	}
}
