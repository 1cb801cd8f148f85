package mutate

import (
	"bytes"
	"testing"
	"testing/quick"

	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
)

func testSemantics() Semantics {
	return Semantics{Controller: 0x01, KnownNodes: []protocol.NodeID{0x01, 0x02, 0x03}}
}

func testMutator() *Mutator { return New(testSemantics(), 1) }

func classOf(t *testing.T, id cmdclass.ClassID) *cmdclass.Class {
	t.Helper()
	if cls, ok := cmdclass.MustLoad().Get(id); ok {
		return cls
	}
	cls, ok := cmdclass.HiddenClass(id)
	if !ok {
		t.Fatalf("class %s not found", id)
	}
	return cls
}

func TestStreamPayloadsTargetTheirClass(t *testing.T) {
	m := testMutator()
	for _, id := range []cmdclass.ClassID{cmdclass.ClassVersion, cmdclass.ClassZWaveProtocol} {
		s := m.Stream(classOf(t, id))
		for i := 0; i < s.SurfaceSize()+50; i++ {
			p := s.Next()
			if len(p) < 2 {
				t.Fatalf("payload %d too short: % X", i, p)
			}
			if p[0] != byte(id) {
				t.Fatalf("payload %d targets class %#02x, want %s", i, p[0], id)
			}
		}
	}
}

func TestSurfaceIncludesBareCommands(t *testing.T) {
	m := testMutator()
	version := classOf(t, cmdclass.ClassVersion)
	s := m.Stream(version)
	seen := make(map[byte]bool)
	for i := 0; i < s.QuickSize(); i++ {
		p := s.Next()
		if len(p) == 2 {
			seen[p[1]] = true
		}
	}
	for _, cmd := range version.Commands {
		if !seen[byte(cmd.ID)] {
			t.Errorf("quick pass missing bare command %s", cmd.ID)
		}
	}
}

func TestSurfaceReachesMemoryTamperShapes(t *testing.T) {
	// The deterministic surface must contain the exact packet shapes of
	// the Table III CMDCL 0x01 bugs.
	m := testMutator()
	s := m.Stream(classOf(t, cmdclass.ClassZWaveProtocol))
	var surface [][]byte
	for i := 0; i < s.SurfaceSize(); i++ {
		surface = append(surface, append([]byte{}, s.Next()...))
	}
	contains := func(pred func(p []byte) bool) bool {
		for _, p := range surface {
			if pred(p) {
				return true
			}
		}
		return false
	}
	if !contains(func(p []byte) bool { // bug 03: bare removal of known node
		return len(p) == 3 && p[1] == 0x0D && p[2] == 0x02
	}) {
		t.Error("surface missing node-removal shape [01 0D 02]")
	}
	if !contains(func(p []byte) bool { // bug 04: broadcast registration
		return len(p) >= 3 && p[1] == 0x0D && p[2] == 0xFF
	}) {
		t.Error("surface missing broadcast-registration shape")
	}
	if !contains(func(p []byte) bool { // bug 12: truncated capability clear
		return len(p) == 4 && p[1] == 0x0D && p[2] == 0x02 && p[3] == 0x00
	}) {
		t.Error("surface missing wakeup-clear shape [01 0D 02 00]")
	}
	if !contains(func(p []byte) bool { // bug 14: max node-mask length
		return len(p) == 3 && p[1] == 0x04 && p[2] == 29
	}) {
		t.Error("surface missing boundary mask-length shape [01 04 1D]")
	}
	if !contains(func(p []byte) bool { // bug 02: unknown node claiming controller type
		return len(p) >= 9 && p[1] == 0x0D && (p[2] == 0x0A || p[2] == 0xC8) && p[6] == 0x01
	}) {
		t.Error("surface missing rogue-controller correlation shape")
	}
}

func TestSurfaceBoundaryValuesForRanges(t *testing.T) {
	m := testMutator()
	proto := classOf(t, cmdclass.ClassZWaveProtocol)
	cmd, _ := proto.Command(cmdclass.CmdProtoFindNodesInRange)
	pool := m.appendPool(nil, cmd.Params[0]) // range 0..29
	want := []byte{0, 29, 30, 0xFF}
	for _, w := range want {
		found := false
		for _, v := range pool {
			if v == w {
				found = true
			}
		}
		if !found {
			t.Errorf("range pool missing boundary value %d: %v", w, pool)
		}
	}
}

func TestNodeIDPoolContainsSemanticsAndInteresting(t *testing.T) {
	m := testMutator()
	pool := m.nodeIDs
	// Known slaves first, controller after them, then interesting IDs.
	if pool[0] != 0x02 || pool[1] != 0x03 {
		t.Fatalf("pool starts %v, want known slaves first", pool[:2])
	}
	for _, want := range []byte{0x01, 0xFF, 0x0A, 0xC8, 0x00} {
		found := false
		for _, v := range pool {
			if v == want {
				found = true
			}
		}
		if !found {
			t.Errorf("node-ID pool missing %#02x", want)
		}
	}
	// No duplicates.
	seen := map[byte]bool{}
	for _, v := range pool {
		if seen[v] {
			t.Fatalf("duplicate %#02x in pool %v", v, pool)
		}
		seen[v] = true
	}
}

func TestCorrelationPoolPutsUnknownIDsFirst(t *testing.T) {
	m := testMutator()
	pool := m.corrNodeIDs
	known := map[byte]bool{0x01: true, 0x02: true, 0x03: true}
	boundary := -1
	for i, v := range pool {
		if known[v] {
			boundary = i
			break
		}
	}
	if boundary == -1 {
		t.Fatal("no known IDs in correlation pool")
	}
	for _, v := range pool[boundary:] {
		if !known[v] {
			t.Fatalf("unknown ID %#02x after known block: %v", v, pool)
		}
	}
}

func TestEnumPoolIncludesIllegalValue(t *testing.T) {
	m := testMutator()
	p := cmdclass.Param{Kind: cmdclass.ParamEnum, Values: []byte{0x00, 0xFF}}
	pool := m.appendPool(nil, p)
	hasIllegal := false
	for _, v := range pool {
		if !p.Legal(v) {
			hasIllegal = true
		}
	}
	if !hasIllegal {
		t.Fatalf("enum pool %v has no illegal value (rand invalid operator)", pool)
	}
}

func TestInvalidEnumValueTerminates(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	if v, ok := invalidEnumValue(cmdclass.Param{Kind: cmdclass.ParamEnum, Values: all}); ok {
		t.Fatalf("found illegal value %#02x in an enum listing every byte", v)
	}
	// 0x00..0xFD legal: the search down from 0xFD wraps past 0x00 to 0xFF.
	if v, ok := invalidEnumValue(cmdclass.Param{Kind: cmdclass.ParamEnum, Values: all[:0xFE]}); !ok || v != 0xFF {
		t.Fatalf("invalidEnumValue = %#02x, %v; want 0xFF, true", v, ok)
	}
}

func TestUnknownClassSurfaceSweepsCommands(t *testing.T) {
	m := testMutator()
	opaque := &cmdclass.Class{ID: 0x02, Name: "OPAQUE"}
	s := m.Stream(opaque)
	if s.QuickSize() == 0 || s.QuickSize() != s.SurfaceSize() {
		t.Fatalf("opaque class quick=%d surface=%d", s.QuickSize(), s.SurfaceSize())
	}
	for i := 0; i < s.SurfaceSize(); i++ {
		if p := s.Next(); p[0] != 0x02 {
			t.Fatalf("payload % X", p)
		}
	}
}

func TestRandomModeHasNoSurface(t *testing.T) {
	m := NewRandom(3)
	s := m.Stream(classOf(t, cmdclass.ClassVersion))
	if s.QuickSize() != 0 || s.SurfaceSize() != 0 {
		t.Fatal("gamma mode must not build a surface")
	}
	for i := 0; i < 100; i++ {
		p := s.Next()
		if p[0] != byte(cmdclass.ClassVersion) {
			t.Fatalf("payload % X", p)
		}
		if len(p) > 2+4 {
			t.Fatalf("gamma payload too long: % X", p)
		}
	}
}

func TestStreamsAreDeterministicPerSeed(t *testing.T) {
	a := New(testSemantics(), 9).Stream(classOf(t, cmdclass.ClassAssocGroupInfo))
	b := New(testSemantics(), 9).Stream(classOf(t, cmdclass.ClassAssocGroupInfo))
	for i := 0; i < 500; i++ {
		if !bytes.Equal(a.Next(), b.Next()) {
			t.Fatalf("streams diverged at packet %d", i)
		}
	}
}

func TestRandomQueueCoversAll256(t *testing.T) {
	q := RandomQueue(cmdclass.MustLoad(), 5)
	if len(q) != 256 {
		t.Fatalf("queue has %d classes, want 256", len(q))
	}
	seen := map[cmdclass.ClassID]bool{}
	for _, c := range q {
		if seen[c.ID] {
			t.Fatalf("duplicate class %s", c.ID)
		}
		seen[c.ID] = true
	}
	// Shuffled: the first 16 should not be 0x00..0x0F in order.
	inOrder := true
	for i := 0; i < 16; i++ {
		if q[i].ID != cmdclass.ClassID(i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("random queue is not shuffled")
	}
}

func TestExhausted(t *testing.T) {
	m := testMutator()
	s := m.Stream(classOf(t, cmdclass.ClassCRC16Encap))
	for !s.Exhausted() {
		s.Next()
	}
	// After exhaustion the stream keeps producing (random refinement).
	if p := s.Next(); len(p) < 2 {
		t.Fatalf("post-surface payload % X", p)
	}
}

// Property: every generated payload fits a Z-Wave frame and targets the
// stream's class.
func TestPayloadsAlwaysEncodableProperty(t *testing.T) {
	reg := cmdclass.MustLoad()
	classes := reg.ControllerCluster()
	prop := func(seed int64, classIdx uint8, n uint8) bool {
		cls := classes[int(classIdx)%len(classes)]
		m := New(testSemantics(), seed)
		s := m.Stream(cls)
		for i := 0; i < int(n%64)+1; i++ {
			p := s.Next()
			if p[0] != byte(cls.ID) {
				return false
			}
			f := protocol.NewDataFrame(0x1234, 0x0F, 0x01, p)
			if _, err := f.Encode(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
