package mutate_test

import (
	"testing"

	"zcover/internal/cmdclass"
	"zcover/internal/zcover/mutate"
)

// TestNextDoesNotAllocate holds Next to zero allocations in every phase
// once the stream is set up: across the whole surface pass, and in
// refinement after the first draw has seeded the class RNG.
func TestNextDoesNotAllocate(t *testing.T) {
	proto, _ := cmdclass.HiddenClass(cmdclass.ClassZWaveProtocol)
	opaque := &cmdclass.Class{ID: 0x02, Name: "OPAQUE"}
	full := mutate.New(campaignSemantics, 1)
	cases := []struct {
		name  string
		s     *mutate.Stream
		skip  bool // seek past the surface first
		draws int
	}{
		{"surface", full.Stream(proto), false, 0},
		{"refinement", full.Stream(proto), true, 500},
		{"opaque surface", full.Stream(opaque), false, 0},
		{"opaque refinement", full.Stream(opaque), true, 500},
		{"gamma", mutate.NewRandom(1).Stream(proto), false, 500},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.skip {
				c.s.Seek(c.s.SurfaceSize())
			}
			draws := c.draws
			if draws == 0 {
				// The first Next below plus AllocsPerRun's warm-up call:
				// together the runs cover the surface to its last packet.
				draws = c.s.SurfaceSize() - 2
			}
			c.s.Next()
			if got := testing.AllocsPerRun(draws, func() { c.s.Next() }); got != 0 {
				t.Fatalf("Next allocates %.2f times per call", got)
			}
			if !c.skip && c.draws == 0 && !c.s.Exhausted() {
				t.Fatal("the measured draws did not reach the end of the surface")
			}
		})
	}
}

// maxAllocsPerClass bounds what opening one class's stream and drawing
// its quick pass may allocate: the stream, its command plans, pools and
// payload buffer — never one allocation per packet.
const maxAllocsPerClass = 6

// TestCampaignStreamsAllocatePerClass holds a campaign's mutation set-up
// to O(classes) allocations, independent of how many packets the quick
// pass draws.
func TestCampaignStreamsAllocatePerClass(t *testing.T) {
	queue := campaignQueue()
	m := mutate.New(campaignSemantics, 1)
	packets := 0
	for _, cls := range queue {
		packets += m.Stream(cls).QuickSize()
	}
	allocs := testing.AllocsPerRun(10, func() { runQuickPass(m, queue) })
	if limit := float64(maxAllocsPerClass*len(queue) + 1); allocs > limit {
		t.Fatalf("%d streams and a %d-packet quick pass allocate %.0f times, want <= %.0f",
			len(queue), packets, allocs, limit)
	}
	t.Logf("%d classes, %d quick-pass packets: %.0f allocations", len(queue), packets, allocs)
}
