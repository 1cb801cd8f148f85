package harness

import (
	"encoding/json"
	"fmt"
	"time"

	"zcover/internal/checkpoint"
	"zcover/internal/fleet"
	"zcover/internal/report"
	"zcover/internal/zcover/fuzz"
)

// This file is the campaign layer's distributed half: the named job
// lists, spec hashes, and renderers the coordinator (internal/coord)
// and its workers share. The coordinator never interprets outcomes — it
// moves journal records; everything campaign-shaped lives here so the
// distributed path renders byte-identically to the local one.

// CampaignJobs returns the named distributed campaign's full job list.
// "table5" is the paper's Table V sweep; "smoke" is a three-job
// sub-minute list for CI and protocol tests. budget <= 0 selects each
// campaign's default.
func CampaignJobs(name string, budget time.Duration) ([]fleet.Job, error) {
	switch name {
	case "table5":
		return table5Jobs(budget), nil
	case "smoke":
		return smokeJobs(budget), nil
	}
	return nil, fmt.Errorf("harness: unknown campaign %q (want table5 or smoke)", name)
}

// smokeJobs is the tiny coordinator-path exercise: two controllers,
// both engines, real findings (a D1 full campaign surfaces its first
// vulnerability inside two simulated minutes) so the bug-log half of
// the determinism contract is not vacuous.
func smokeJobs(budget time.Duration) []fleet.Job {
	if budget <= 0 {
		budget = 2 * time.Minute
	}
	return []fleet.Job{
		{Name: "smoke/D1/zcover", Device: "D1", Strategy: fuzz.StrategyFull, Seed: 41, Budget: budget},
		{Name: "smoke/D1/vfuzz", Device: "D1", Baseline: true, Seed: 41, Budget: budget},
		{Name: "smoke/D2/zcover", Device: "D2", Strategy: fuzz.StrategyFull, Seed: 42, Budget: budget},
	}
}

// CampaignSpecHash fingerprints a campaign (checkpoint.SpecHash over the
// name plus the complete job list). Every journal of a sweep, local or
// coordinated, carries it, so `experiments -resume` can render a
// coordinator's journal and vice versa.
func CampaignSpecHash(name string, jobs []fleet.Job) (string, error) {
	return checkpoint.SpecHash(campaignSpec{Campaign: name, Jobs: jobs})
}

// DecodeRecords decodes journal records (Coordinator.Records, in job
// order) back into campaign outcomes. Every job must be present exactly
// once: a short set, an out-of-range index, or a repeated one is an
// error, never a table with a zero row.
func DecodeRecords(recs []checkpoint.JobRecord, total int) ([]FleetOutcome, error) {
	if len(recs) != total {
		return nil, fmt.Errorf("harness: %d records for %d jobs", len(recs), total)
	}
	outs := make([]FleetOutcome, total)
	seen := make([]bool, total)
	for _, rec := range recs {
		if rec.Index < 0 || rec.Index >= total {
			return nil, fmt.Errorf("harness: record index %d out of range [0,%d)", rec.Index, total)
		}
		if seen[rec.Index] {
			return nil, fmt.Errorf("harness: job %d (%s) appears twice", rec.Index, rec.Label)
		}
		seen[rec.Index] = true
		out, err := DecodeOutcome(rec.Body)
		if err != nil {
			return nil, fmt.Errorf("harness: job %d (%s): %w", rec.Index, rec.Label, err)
		}
		outs[rec.Index] = out
	}
	return outs, nil
}

// RenderCampaign renders the named campaign's table from its outcomes
// and appends the findings to the bug-log sink (SetBugLog) in job order
// — the exact epilogue runCampaigns performs locally, so a coordinated
// sweep's table and bug log are byte-identical to a single-machine run.
func RenderCampaign(name string, outs []FleetOutcome) (*report.Table, error) {
	if err := writeBugLog(outs); err != nil {
		return nil, err
	}
	switch name {
	case "table5":
		tbl, _, err := renderTable5(outs)
		return tbl, err
	case "smoke":
		return renderSmoke(outs), nil
	}
	return nil, fmt.Errorf("harness: unknown campaign %q", name)
}

// renderSmoke summarises the smoke campaign: per job, the packets sent
// and findings surfaced.
func renderSmoke(outs []FleetOutcome) *report.Table {
	jobs := smokeJobs(0)
	tbl := &report.Table{
		Title:   "Coordinator smoke campaign",
		Headers: []string{"Job", "Packets", "Findings"},
	}
	for i, o := range outs {
		label := fmt.Sprintf("job %d", i)
		if i < len(jobs) {
			label = jobs[i].Name
		}
		packets, findings := 0, 0
		if res := o.Fuzz(); res != nil {
			packets, findings = res.PacketsSent, len(res.Findings)
		}
		tbl.AddRow(label, fmt.Sprintf("%d", packets), fmt.Sprintf("%d", findings))
	}
	return tbl
}

// LeaseRunner adapts the campaign executor into a coordinator worker's
// job runner: every leased job runs on a single-job fleet — fresh
// private testbed, panic isolation, MaxAttempts retries, timeline and
// progress wiring — exactly as it would inside a local sweep, and comes
// back as the serialised outcome the coordinator journals.
func LeaseRunner(cfg fleet.Config) func(job fleet.Job) (json.RawMessage, int, error) {
	cfg.Checkpoint = nil // leases replace local campaign checkpointing
	return func(job fleet.Job) (json.RawMessage, int, error) {
		res := fleet.Run([]fleet.Job{job}, RunFleetJob, cfg)[0]
		if res.Err != nil {
			return nil, res.Attempts, res.Err
		}
		raw, err := EncodeOutcome(res.Value)
		if err != nil {
			return nil, res.Attempts, err
		}
		return raw, res.Attempts, nil
	}
}
