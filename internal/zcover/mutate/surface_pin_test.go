package mutate_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
	"zcover/internal/testbed"
	"zcover/internal/zcover/discover"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// surfacePinFile pins every stream the campaigns open: per class, the
// quick-pass and surface sizes, a SHA-256 over the surface packets and a
// SHA-256 over the first refinementDraws packets after it.
const surfacePinFile = "testdata/surface-pin.txt"

// refinementDraws is how many post-surface packets each pin line hashes.
const refinementDraws = 64

// pinStream renders one pin line for a stream: reading exactly
// SurfaceSize packets must exhaust it, and every packet is hashed with a
// length prefix so a moved byte boundary changes the digest.
func pinStream(t *testing.T, label string, s *mutate.Stream) string {
	t.Helper()
	quick, size := s.QuickSize(), s.SurfaceSize()
	surface, refine := sha256.New(), sha256.New()
	for i := 0; i < size; i++ {
		if s.Exhausted() {
			t.Fatalf("%s: exhausted after %d of %d surface packets", label, i, size)
		}
		hashPacket(surface, s.Next())
	}
	if !s.Exhausted() {
		t.Fatalf("%s: not exhausted after %d surface packets", label, size)
	}
	for i := 0; i < refinementDraws; i++ {
		hashPacket(refine, s.Next())
	}
	return fmt.Sprintf("%s quick=%d surface=%d surface_sha=%x refine_sha=%x",
		label, quick, size, surface.Sum(nil), refine.Sum(nil))
}

func hashPacket(h hash.Hash, p []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(p)))
	h.Write(n[:])
	h.Write(p)
}

// fingerprintQueue runs phases 1 and 2 against a testbed profile and
// returns the semantics and prioritised queue phase 3 would fuzz.
func fingerprintQueue(t *testing.T, index string) (mutate.Semantics, []*cmdclass.Class) {
	t.Helper()
	tb, err := testbed.New(index, 11)
	if err != nil {
		t.Fatal(err)
	}
	d := dongle.New(tb.Medium, tb.Region)
	tb.ScheduleTraffic(6, 10*time.Second)
	fp, err := scan.FingerprintTarget(d, time.Minute+10*time.Second, 0)
	if err != nil {
		t.Fatalf("%s: %v", index, err)
	}
	res, err := discover.Run(d, cmdclass.MustLoad(), fp)
	if err != nil {
		t.Fatalf("%s: %v", index, err)
	}
	return mutate.Semantics{Controller: fp.Controller, KnownNodes: fp.Nodes}, res.Prioritized
}

// surfacePin renders the full pin: the D1–D7 queues under their own
// fingerprints, the hidden classes with no network knowledge, every class
// of the γ queue (opaque ones included) under both generators.
func surfacePin(t *testing.T) []string {
	var lines []string
	for i, index := range []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7"} {
		sem, queue := fingerprintQueue(t, index)
		if len(queue) != 45 {
			t.Fatalf("%s: queue has %d classes, want 45", index, len(queue))
		}
		m := mutate.New(sem, int64(i+1))
		for _, cls := range queue {
			lines = append(lines, pinStream(t, fmt.Sprintf("%s %s", index, cls.ID), m.Stream(cls)))
		}
	}
	bare := mutate.New(mutate.Semantics{Controller: 0x01}, 31)
	for _, cls := range cmdclass.HiddenCandidates() {
		lines = append(lines, pinStream(t, fmt.Sprintf("hidden %s", cls.ID), bare.Stream(cls)))
	}
	sem := mutate.Semantics{Controller: 0x01, KnownNodes: []protocol.NodeID{0x01, 0x02, 0x03}}
	full, gamma := mutate.New(sem, 47), mutate.NewRandom(47)
	for _, cls := range mutate.RandomQueue(cmdclass.MustLoad(), 47) {
		if len(cls.Commands) == 0 {
			lines = append(lines, pinStream(t, fmt.Sprintf("opaque %s", cls.ID), full.Stream(cls)))
		}
		lines = append(lines, pinStream(t, fmt.Sprintf("gamma %s", cls.ID), gamma.Stream(cls)))
	}
	return lines
}

// TestSurfacePinned holds every stream to the packets the eager surface
// builder produced, so the enumeration cannot drift silently.
func TestSurfacePinned(t *testing.T) {
	f, err := os.Open(surfacePinFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := surfacePin(t)
	if len(got) != len(want) {
		t.Fatalf("pin has %d streams, got %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("stream %d:\n got %s\nwant %s", i, got[i], want[i])
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
