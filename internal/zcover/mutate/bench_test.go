package mutate_test

import (
	"testing"

	"zcover/internal/cmdclass"
	"zcover/internal/protocol"
	"zcover/internal/zcover/mutate"
)

// campaignSemantics is the fingerprint of a three-node network.
var campaignSemantics = mutate.Semantics{Controller: 1, KnownNodes: []protocol.NodeID{1, 2, 3}}

// campaignQueue is the 45-class queue a full campaign fuzzes: the
// controller cluster plus the hidden classes, prioritised.
func campaignQueue() []*cmdclass.Class {
	queue := append(cmdclass.MustLoad().ControllerCluster(), cmdclass.HiddenCandidates()...)
	return cmdclass.PrioritizeByCommandCount(queue)
}

// runQuickPass opens a stream per class, as the engines do before the
// first frame, then draws every class's quick pass. It returns the bytes
// drawn.
func runQuickPass(m *mutate.Mutator, queue []*cmdclass.Class) int {
	streams := make([]*mutate.Stream, len(queue))
	for i, cls := range queue {
		streams[i] = m.Stream(cls)
	}
	drawn := 0
	for _, s := range streams {
		for n := s.QuickSize(); n > 0; n-- {
			drawn += len(s.Next())
		}
	}
	return drawn
}

// benchSink keeps benchmark results live.
var benchSink int

// BenchmarkCampaignStreams measures a campaign's mutation set-up: open
// the real queue's streams and run its quick pass.
func BenchmarkCampaignStreams(b *testing.B) {
	queue := campaignQueue()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = runQuickPass(mutate.New(campaignSemantics, 1), queue)
	}
}

func BenchmarkStreamNext(b *testing.B) {
	proto, _ := cmdclass.HiddenClass(cmdclass.ClassZWaveProtocol)
	s := mutate.New(campaignSemantics, 1).Stream(proto)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p := s.Next(); len(p) < 2 {
			b.Fatal("short payload")
		}
	}
}
