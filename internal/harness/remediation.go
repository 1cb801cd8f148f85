package harness

import (
	"strconv"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/report"
	"zcover/internal/zcover/fuzz"
)

// RemediationRow is one device's before/after-patch comparison.
type RemediationRow struct {
	// Index is the testbed device.
	Index string
	// Before and After count unique vulnerabilities found by a full
	// campaign against the stock and patched firmware.
	Before, After int
	// Remaining lists the signatures surviving the patch.
	Remaining []string
}

// Remediation validates the paper's §V-B mitigation path: rerun the full
// ZCover campaign against firmware built on the updated specification
// (the one the Z-Wave Alliance incorporates the paper's findings into)
// and show that only the implementation bugs — which need vendor SDK
// fixes, not spec changes — survive. The stock and patched campaigns are
// scheduled across a fleet worker pool.
func Remediation(devices []string, duration time.Duration, cfg fleet.Config) (*report.Table, []RemediationRow, error) {
	if len(devices) == 0 {
		devices = []string{"D1", "D6"}
	}
	if duration <= 0 {
		duration = 24 * time.Hour
	}
	out := &report.Table{
		Title:   "Remediation (§V-B): full campaign before vs after the specification update",
		Headers: []string{"ID", "#Vul stock firmware", "#Vul patched firmware", "Surviving (implementation bugs)"},
		Notes: []string{
			"The patch closes every specification-rooted bug; host-program",
			"implementation bugs (06, 13) need vendor SDK fixes and remain.",
		},
	}
	var jobs []fleet.Job
	for _, idx := range devices {
		seed := deviceSeed(idx)
		jobs = append(jobs,
			fleet.Job{Name: "remediation/" + idx + "/stock", Device: idx,
				Strategy: fuzz.StrategyFull, Seed: seed, Budget: duration},
			fleet.Job{Name: "remediation/" + idx + "/patched", Device: idx, Patched: true,
				Strategy: fuzz.StrategyFull, Seed: seed, Budget: duration})
	}
	outs, err := runCampaigns("remediation", jobs, cfg)
	if err != nil {
		return nil, nil, err
	}
	var rows []RemediationRow
	for i, idx := range devices {
		before, after := outs[2*i].Campaign, outs[2*i+1].Campaign
		row := RemediationRow{Index: idx, Before: len(before.Fuzz.Findings), After: len(after.Fuzz.Findings)}
		for _, f := range after.Fuzz.Findings {
			row.Remaining = append(row.Remaining, f.Signature)
		}
		rows = append(rows, row)
		surviving := "-"
		if len(row.Remaining) > 0 {
			surviving = ""
			for i, s := range row.Remaining {
				if i > 0 {
					surviving += ", "
				}
				surviving += s
			}
		}
		out.AddRow(idx, strconv.Itoa(row.Before), strconv.Itoa(row.After), surviving)
	}
	return out, rows, nil
}
