package harness

import (
	"fmt"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/zcover/fuzz"
)

// TrialSummary aggregates repeated campaigns against one device —
// "following recommended fuzzing practices, we conducted five 24-hour
// fuzzing trials for each controller" (§IV, Experiment environment).
type TrialSummary struct {
	// Device is the testbed index.
	Device string
	// Trials is the number of campaigns run.
	Trials int
	// PerTrial lists each trial's unique-vulnerability count.
	PerTrial []int
	// Union is the number of distinct signatures across all trials.
	Union int
	// Stable reports whether every trial found the same signature set.
	Stable bool
}

// RunTrials executes n full-ZCover campaigns against the same device,
// each on a freshly built testbed (as re-flashing/rebooting the device
// does in the paper's methodology), with per-trial seeds. The trials are
// scheduled across a fleet worker pool; trial seeds are fixed up front, so
// the summary is identical for any worker count.
func RunTrials(index string, n int, duration time.Duration, baseSeed int64, cfg fleet.Config) (TrialSummary, error) {
	if n <= 0 {
		return TrialSummary{}, fmt.Errorf("harness: trials must be positive, got %d", n)
	}
	var jobs []fleet.Job
	for trial := 0; trial < n; trial++ {
		jobs = append(jobs, fleet.Job{
			Name: fmt.Sprintf("trials/%s/%d", index, trial+1), Device: index,
			Strategy: fuzz.StrategyFull, Seed: baseSeed + int64(trial), Budget: duration,
		})
	}
	outs, err := runCampaigns("trials/"+index, jobs, cfg)
	if err != nil {
		return TrialSummary{}, err
	}

	sum := TrialSummary{Device: index, Trials: n, Stable: true}
	union := make(map[string]bool)
	var first map[string]bool
	for _, o := range outs {
		found := make(map[string]bool, len(o.Fuzz().Findings))
		for _, f := range o.Fuzz().Findings {
			found[f.Signature] = true
			union[f.Signature] = true
		}
		sum.PerTrial = append(sum.PerTrial, len(found))
		if first == nil {
			first = found
		} else if !sameSet(first, found) {
			sum.Stable = false
		}
	}
	sum.Union = len(union)
	return sum, nil
}

// sameSet compares two signature sets.
func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
