package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"zcover/internal/checkpoint"
	"zcover/internal/cmdclass"
	"zcover/internal/coord"
	"zcover/internal/fleet"
	"zcover/internal/testbed"
	"zcover/internal/zcover/discover"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/scan"
)

// This file is the checkpoint half of the campaign layer: it serialises
// FleetOutcome values into journal records and runs checkpointed
// campaigns through the coordinator core (internal/coord) in-process, so
// local resume and distributed sweeps share one journal path.
//
// The determinism contract: every job is fully determined by its spec
// (device, strategy, seed, budget, chaos profile/seed), so an outcome
// replayed from a journal is byte-identical to re-executing the job.
// Tables and bug logs rendered from any mix of journaled and fresh
// outcomes therefore match an uninterrupted run exactly — the
// kill-anywhere/resume invariant pinned in checkpoint_test.go.

// discoveryRecord is the serialised form of discover.Result. Classes are
// stored as IDs and resolved back against the embedded specification on
// decode, so journals stay small and survive registry-pointer identity.
type discoveryRecord struct {
	Listed            []cmdclass.ClassID `json:"listed,omitempty"`
	Unlisted          []cmdclass.ClassID `json:"unlisted,omitempty"`
	Hidden            []cmdclass.ClassID `json:"hidden,omitempty"`
	ConfirmedCommands []discover.CmdRef  `json:"confirmed_commands,omitempty"`
	Prioritized       []cmdclass.ClassID `json:"prioritized,omitempty"`
	ProbesSent        int                `json:"probes_sent,omitempty"`
}

// campaignRecord is the serialised form of a ZCover Campaign. The fuzz
// result (findings with oracle events and confidence grades, timeline,
// packet counters, simulated elapsed time) marshals directly — every
// field is exported and JSON-exact (durations as nanoseconds, payloads
// as base64, sim timestamps as RFC 3339).
type campaignRecord struct {
	Fingerprint scan.Fingerprint `json:"fingerprint"`
	Discovery   discoveryRecord  `json:"discovery"`
	Fuzz        *fuzz.Result     `json:"fuzz"`
}

// outcomeRecord is the journal body of one FleetOutcome: exactly one of
// the fields is set, mirroring the in-memory invariant.
type outcomeRecord struct {
	Campaign *campaignRecord `json:"campaign,omitempty"`
	Baseline *fuzz.Result    `json:"baseline,omitempty"`
	CovFuzz  *fuzz.CovResult `json:"covfuzz,omitempty"`
}

// classIDs projects a class list to its IDs.
func classIDs(classes []*cmdclass.Class) []cmdclass.ClassID {
	if len(classes) == 0 {
		return nil
	}
	out := make([]cmdclass.ClassID, len(classes))
	for i, c := range classes {
		out[i] = c.ID
	}
	return out
}

// resolveClasses maps IDs back to specification classes: the registry
// first, then the proprietary (hidden) catalogue, then a synthesised
// minimal definition — the same fallback order the discovery phase uses
// when it meets a responding class with no spec entry.
func resolveClasses(reg *cmdclass.Registry, ids []cmdclass.ClassID) []*cmdclass.Class {
	if len(ids) == 0 {
		return nil
	}
	out := make([]*cmdclass.Class, len(ids))
	for i, id := range ids {
		if cls, ok := reg.Get(id); ok {
			out[i] = cls
		} else if cls, ok := cmdclass.HiddenClass(id); ok {
			out[i] = cls
		} else {
			out[i] = &cmdclass.Class{
				ID: id, Name: fmt.Sprintf("PROPRIETARY_0x%02X", byte(id)),
				Category: cmdclass.CategoryManagement, Scope: cmdclass.ScopeController,
			}
		}
	}
	return out
}

// EncodeOutcome serialises one campaign outcome for journaling.
func EncodeOutcome(o FleetOutcome) (json.RawMessage, error) {
	rec := outcomeRecord{Baseline: o.Baseline, CovFuzz: o.CovFuzz}
	if o.Campaign != nil {
		rec.Campaign = &campaignRecord{
			Fingerprint: o.Campaign.Fingerprint,
			Discovery: discoveryRecord{
				Listed:            classIDs(o.Campaign.Discovery.ListedClasses),
				Unlisted:          classIDs(o.Campaign.Discovery.UnlistedSpec),
				Hidden:            classIDs(o.Campaign.Discovery.HiddenConfirmed),
				ConfirmedCommands: o.Campaign.Discovery.ConfirmedCommands,
				Prioritized:       classIDs(o.Campaign.Discovery.Prioritized),
				ProbesSent:        o.Campaign.Discovery.ProbesSent,
			},
			Fuzz: o.Campaign.Fuzz,
		}
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("harness: encoding outcome: %w", err)
	}
	return raw, nil
}

// DecodeOutcome is the EncodeOutcome inverse. The body must set exactly
// one outcome kind, and a ZCover campaign must carry its fuzz result:
// anything else is garbage (a CRC-valid "{}" included) and errors here
// rather than surfacing as a nil dereference in a renderer.
func DecodeOutcome(raw json.RawMessage) (FleetOutcome, error) {
	var rec outcomeRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return FleetOutcome{}, fmt.Errorf("harness: decoding outcome: %w", err)
	}
	kinds := 0
	for _, set := range []bool{rec.Campaign != nil, rec.Baseline != nil, rec.CovFuzz != nil} {
		if set {
			kinds++
		}
	}
	if kinds != 1 {
		return FleetOutcome{}, fmt.Errorf("harness: outcome sets %d of campaign, baseline, covfuzz; want exactly one", kinds)
	}
	out := FleetOutcome{Baseline: rec.Baseline, CovFuzz: rec.CovFuzz}
	if rec.Campaign != nil {
		if rec.Campaign.Fuzz == nil {
			return FleetOutcome{}, fmt.Errorf("harness: campaign outcome has no fuzz result")
		}
		reg, err := cmdclass.Load()
		if err != nil {
			return FleetOutcome{}, fmt.Errorf("harness: %w", err)
		}
		out.Campaign = &Campaign{
			Fingerprint: rec.Campaign.Fingerprint,
			Discovery: discover.Result{
				ListedClasses:     resolveClasses(reg, rec.Campaign.Discovery.Listed),
				UnlistedSpec:      resolveClasses(reg, rec.Campaign.Discovery.Unlisted),
				HiddenConfirmed:   resolveClasses(reg, rec.Campaign.Discovery.Hidden),
				ConfirmedCommands: rec.Campaign.Discovery.ConfirmedCommands,
				Prioritized:       resolveClasses(reg, rec.Campaign.Discovery.Prioritized),
				ProbesSent:        rec.Campaign.Discovery.ProbesSent,
			},
			Fuzz: rec.Campaign.Fuzz,
		}
	}
	return out, nil
}

// campaignSpec is what SpecHash fingerprints: the experiment name plus
// the complete job list. Any drift — a seed, a budget, a chaos profile,
// job order — changes the hash and refuses stale journals.
type campaignSpec struct {
	Campaign string      `json:"campaign"`
	Jobs     []fleet.Job `json:"jobs"`
}

// bug-log sink (SetBugLog): campaign drivers append every completed
// campaign's findings here as JSON lines, in job order.
var (
	bugLogMu sync.Mutex
	bugLogW  io.Writer
)

// SetBugLog directs every subsequent campaign driver to append its
// outcomes' findings to w as bug-log JSON lines (fuzz.WriteLog format),
// in deterministic job order. Nil disables. Intended for process
// start-up, like SetFleetRecorderDepth.
func SetBugLog(w io.Writer) {
	bugLogMu.Lock()
	defer bugLogMu.Unlock()
	bugLogW = w
}

// writeBugLog appends the outcomes' findings to the configured sink.
func writeBugLog(outs []FleetOutcome) error {
	bugLogMu.Lock()
	defer bugLogMu.Unlock()
	if bugLogW == nil {
		return nil
	}
	for _, o := range outs {
		if res := o.Fuzz(); res != nil {
			if err := fuzz.WriteLog(bugLogW, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// runCheckpointed is runCampaigns with a checkpoint spec. The campaign's
// coordinator, used in-process, owns the journal: the fleet runs only the
// jobs the journal lacks, each outcome is journaled through Submit, and
// the table is rendered from the journal's records. Journaled records
// are decoded before any job runs, so codec drift fails before any work
// is spent; a complete journal renders with nothing executed.
func runCheckpointed(name string, jobs []fleet.Job, cfg fleet.Config) ([]FleetOutcome, error) {
	hash, err := CampaignSpecHash(name, jobs)
	if err != nil {
		return nil, err
	}
	c, err := coord.New(coord.Config{
		Campaign: name, Jobs: jobs, SpecHash: hash,
		Dir: cfg.Checkpoint.Dir, Resume: cfg.Checkpoint.Resume,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	journaled := make([]bool, len(jobs))
	for _, rec := range c.Journaled() {
		if _, err := DecodeOutcome(rec.Body); err != nil {
			return nil, fmt.Errorf("harness: %s job %d (%s): %w", name, rec.Index, rec.Label, err)
		}
		journaled[rec.Index] = true
	}
	var pending []int
	for i := range jobs {
		if !journaled[i] {
			pending = append(pending, i)
		}
	}
	if len(pending) > 0 {
		subJobs := make([]fleet.Job, len(pending))
		for k, i := range pending {
			subJobs[k] = jobs[i]
		}
		results := fleet.New(subJobs, RunFleetJob, cfg).WithResume(
			func(k int, job fleet.Job, res fleet.Result[FleetOutcome]) error {
				raw, err := EncodeOutcome(res.Value)
				if err != nil {
					return err
				}
				_, err = c.Submit(coord.ResultRequest{
					Worker: "local", JobIndex: pending[k], SpecHash: hash,
					Attempts: res.Attempts, Body: raw,
				})
				return err
			}).Run()
		if err := fleet.FirstError(results); err != nil {
			return nil, err
		}
	}
	recs, err := c.Records()
	if err != nil {
		return nil, err
	}
	return DecodeRecords(recs, len(jobs))
}

// CampaignKey identifies a single-campaign checkpoint: every input that
// determines the campaign's output. Two runs with equal keys produce
// byte-identical campaigns, which is what makes replaying a journaled
// outcome sound.
type CampaignKey struct {
	Target       string        `json:"target"`
	Strategy     fuzz.Strategy `json:"strategy"`
	Duration     time.Duration `json:"duration"`
	Seed         int64         `json:"seed"`
	ChaosProfile string        `json:"chaos_profile,omitempty"`
	ChaosSeed    int64         `json:"chaos_seed,omitempty"`
}

// RunZCoverResumable runs the key's ZCover campaign through Run as a
// one-job checkpointed campaign under dir, on the same coordinator path
// as runCheckpointed. A completed campaign already journaled for the same
// key is decoded and returned (resumed=true) without executing anything;
// a journal that exists but holds no completed outcome — the process died
// mid-campaign — re-runs the campaign from its seed and journals the
// outcome. An existing journal is refused unless resume is set.
func RunZCoverResumable(dir string, resume bool, key CampaignKey, tb *testbed.Testbed, opts Options) (*Campaign, bool, error) {
	hash, err := checkpoint.SpecHash(key)
	if err != nil {
		return nil, false, err
	}
	name := "zcover-" + key.Target
	job := fleet.Job{
		Name: name, Device: key.Target, Strategy: key.Strategy, Seed: key.Seed,
		Budget: key.Duration, ChaosProfile: key.ChaosProfile, ChaosSeed: key.ChaosSeed,
	}
	c, err := coord.New(coord.Config{
		Campaign: name, SpecHash: hash, Dir: dir, Resume: resume, Jobs: []fleet.Job{job},
	})
	if err != nil {
		return nil, false, err
	}
	defer c.Close()
	if recs := c.Journaled(); len(recs) == 1 {
		out, err := DecodeOutcome(recs[0].Body)
		if err == nil && out.Campaign == nil {
			err = fmt.Errorf("journaled outcome is not a ZCover campaign")
		}
		if err != nil {
			return nil, false, fmt.Errorf("harness: %s: %w", name, err)
		}
		return out.Campaign, true, nil
	}

	out, err := Run(tb, job, opts)
	if err != nil {
		return nil, false, err
	}
	raw, err := EncodeOutcome(out)
	if err != nil {
		return nil, false, err
	}
	if _, err := c.Submit(coord.ResultRequest{
		Worker: "local", JobIndex: 0, SpecHash: hash, Attempts: 1, Body: raw,
	}); err != nil {
		return nil, false, err
	}
	return out.Campaign, false, nil
}
