package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/oracle"
	"zcover/internal/zcover/fuzz"
)

// workload is one benchmark input set. A run executes rounds of the
// workload's job list until its time is up; round r of seed s is always
// the same job list.
type workload struct {
	name string
	// jobs returns round r's job list.
	jobs func(seed int64, round int, sz sizing) []fleet.Job
	// coordinated runs each round as one coordinator campaign with
	// in-process lease workers instead of one local fleet sweep.
	coordinated bool
	// observed attaches the forensics observers (flight recorder, fleet
	// span tracer, worker timeline, metrics export) to every round.
	observed bool
	// check returns one message per output violation in a round.
	check func(jobs []fleet.Job, outs []harness.FleetOutcome, sz sizing) []string
}

// sizing overrides a workload's per-round size. The zero value is the
// benchmark; tests shrink it to keep the race-enabled suite fast.
type sizing struct {
	// jobs caps the jobs per round (0 = the workload's full list).
	jobs int
	// budget replaces every campaign's simulated budget (0 = default).
	budget time.Duration
}

// full reports whether campaigns run their full budgets, which the
// budget-dependent output checks need.
func (sz sizing) full() bool { return sz.budget == 0 }

// apply caps jobs and overrides budgets per sz.
func (sz sizing) apply(jobs []fleet.Job) []fleet.Job {
	if sz.jobs > 0 && sz.jobs < len(jobs) {
		jobs = jobs[:sz.jobs]
	}
	if sz.budget > 0 {
		for i := range jobs {
			jobs[i].Budget = sz.budget
		}
	}
	return jobs
}

// Table V's controllers and the chaos sweep's impairment profiles.
var (
	table5Devices = []string{"D1", "D2", "D3", "D4", "D5"}
	chaosProfiles = []string{"lossy", "burst"}
)

// coordJobsPerRound is the size of one coordinator campaign.
const coordJobsPerRound = 1000

// workloads lists the benchmark's workloads by name.
var workloads = map[string]*workload{
	"table5":   {name: "table5", jobs: table5Jobs, check: checkTable5},
	"observed": {name: "observed", jobs: table5Jobs, check: checkTable5, observed: true},
	"chaos":    {name: "chaos", jobs: chaosJobs, check: checkChaos},
	"coord":    {name: "coord", jobs: coordJobs, check: checkCoord, coordinated: true},
}

// deviceSeed derives a campaign seed from the run seed, the round, and
// the device number, so every round fuzzes fresh campaigns.
func deviceSeed(seed int64, round int, device string) int64 {
	return seed*1000 + int64(round)*10 + int64(device[len(device)-1]-'0')
}

// table5Jobs is one Table V sweep: a VFuzz and a ZCover-full campaign
// per controller D1–D5 with the paper's 24 h budget, in the harness's
// row order.
func table5Jobs(seed int64, round int, sz sizing) []fleet.Job {
	var jobs []fleet.Job
	for _, dev := range table5Devices {
		s := deviceSeed(seed, round, dev)
		prefix := fmt.Sprintf("table5/r%d/%s/", round, dev)
		jobs = append(jobs,
			fleet.Job{Name: prefix + "vfuzz", Device: dev, Baseline: true, Seed: s, Budget: 24 * time.Hour},
			fleet.Job{Name: prefix + "zcover", Device: dev, Strategy: fuzz.StrategyFull, Seed: s, Budget: 24 * time.Hour})
	}
	return sz.apply(jobs)
}

// chaosJobs runs ZCover-full on D1–D5 under each impairment profile with
// a 12 h budget; the injector's fault streams are seeded per campaign.
func chaosJobs(seed int64, round int, sz sizing) []fleet.Job {
	var jobs []fleet.Job
	for _, dev := range table5Devices {
		s := deviceSeed(seed, round, dev)
		for _, profile := range chaosProfiles {
			jobs = append(jobs, fleet.Job{
				Name:   fmt.Sprintf("chaos/r%d/%s/%s", round, dev, profile),
				Device: dev, Strategy: fuzz.StrategyFull, Seed: s, Budget: 12 * time.Hour,
				ChaosProfile: profile, ChaosSeed: s,
			})
		}
	}
	return sz.apply(jobs)
}

// coordJobs is one coordinator campaign of short (10 min) campaigns that
// alternate ZCover-full and VFuzz while cycling over D1–D7, so fixed
// per-campaign costs and the distribution path carry real weight.
func coordJobs(seed int64, round int, sz sizing) []fleet.Job {
	jobs := make([]fleet.Job, coordJobsPerRound)
	for i := range jobs {
		dev := fmt.Sprintf("D%d", 1+i%7)
		j := fleet.Job{
			Name:   fmt.Sprintf("coord/r%d/%d", round, i),
			Device: dev, Seed: seed*1_000_000 + int64(round)*10_000 + int64(i),
			Budget: 10 * time.Minute,
		}
		if i%2 == 0 {
			j.Strategy = fuzz.StrategyFull
		} else {
			j.Baseline = true
		}
		jobs[i] = j
	}
	return sz.apply(jobs)
}

// Chaos screening: a campaign whose fault stream fails the scan moves to
// the stream chaosSeedStep further on, at most maxScreens times.
const (
	chaosSeedStep = 1_000_003
	maxScreens    = 16
)

// screenChaos gives every chaos campaign a fault stream under which the
// scanner still fingerprints the controller. A deep fade during the scan's
// liveness probe or NIF exchange fails a campaign before it fuzzes (about
// one campaign in two hundred under "burst", one in five hundred under
// "lossy"), and a retry replays the same faults. Screening runs each
// campaign with a one-second budget — the scan and discovery phases do not
// depend on the budget — and moves a failing one to the next fault
// stream. It is deterministic: a seed still yields the same jobs.
func screenChaos(jobs []fleet.Job) error {
	var pending []int
	for i, job := range jobs {
		if job.ChaosProfile != "" {
			pending = append(pending, i)
		}
	}
	for try := 0; len(pending) > 0; try++ {
		if try == maxScreens {
			return fmt.Errorf("chaos: no fault stream among %d lets %s complete its scan", maxScreens, jobs[pending[0]].Label())
		}
		probes := make([]fleet.Job, len(pending))
		for k, i := range pending {
			probes[k] = jobs[i]
			probes[k].Budget = time.Second
		}
		results := fleet.Run(probes, harness.RunFleetJob, fleet.Config{Workers: 1, MaxAttempts: 1})
		next := pending[:0]
		for k, res := range results {
			if res.Err != nil {
				jobs[pending[k]].ChaosSeed += chaosSeedStep
				next = append(next, pending[k])
			}
		}
		pending = next
	}
	return nil
}

// checkKinds flags outcomes of the wrong kind for their job or campaigns
// that sent no test frames.
func checkKinds(jobs []fleet.Job, outs []harness.FleetOutcome) []string {
	var bad []string
	for i, job := range jobs {
		o := outs[i]
		switch {
		case job.Baseline && o.Baseline == nil, !job.Baseline && o.Campaign == nil:
			bad = append(bad, fmt.Sprintf("%s: outcome of the wrong kind", job.Label()))
		case o.Fuzz().PacketsSent <= 0:
			bad = append(bad, fmt.Sprintf("%s: no test frames sent", job.Label()))
		}
	}
	return bad
}

// table5Bugs is how many catalogued bugs ZCover-full finds on each of
// D1–D5 within 24 h (Table V).
const table5Bugs = 14

// checkTable5 verifies Table V's shape: at full budget every ZCover
// campaign finds exactly the 14 catalogued bugs and nothing else, and
// every catalogued bug VFuzz finds on a device ZCover found there too.
// (At the paper's seeds VFuzz finds none of them — Common = 0 — but over
// derived seeds it occasionally rediscovers one.)
func checkTable5(jobs []fleet.Job, outs []harness.FleetOutcome, sz sizing) []string {
	bad := checkKinds(jobs, outs)
	if len(bad) > 0 || !sz.full() {
		return bad
	}
	for i := 0; i+1 < len(jobs); i += 2 {
		vf, zc := outs[i].Fuzz(), outs[i+1].Fuzz()
		found := map[string]bool{}
		for _, f := range zc.Findings {
			if _, ok := harness.BugBySignature(f.Signature); ok {
				found[f.Signature] = true
			}
		}
		if len(found) != table5Bugs || len(zc.Findings) != table5Bugs {
			bad = append(bad, fmt.Sprintf("%s: %d findings, %d catalogued, want %d",
				jobs[i+1].Label(), len(zc.Findings), len(found), table5Bugs))
		}
		for _, f := range vf.Findings {
			if _, ok := harness.BugBySignature(f.Signature); ok && !found[f.Signature] {
				bad = append(bad, fmt.Sprintf("%s: catalogued %s missed by ZCover", jobs[i].Label(), f.Signature))
			}
		}
	}
	return bad
}

// checkChaos verifies that impairment never fabricates a new bug: every
// confirmed finding is catalogued, or is a MAC-parsing fault (the
// chipset one-day class a corrupted frame can trip).
func checkChaos(jobs []fleet.Job, outs []harness.FleetOutcome, _ sizing) []string {
	bad := checkKinds(jobs, outs)
	for i, o := range outs {
		if o.Campaign == nil {
			continue
		}
		for _, f := range o.Fuzz().Findings {
			if f.Event.Confidence == oracle.ConfidenceSuspect || f.Event.Kind == oracle.MACParsingFault {
				continue
			}
			if _, ok := harness.BugBySignature(f.Signature); !ok {
				bad = append(bad, fmt.Sprintf("%s: confirmed finding %s is not catalogued", jobs[i].Label(), f.Signature))
			}
		}
	}
	return bad
}

// checkCoord verifies that every ZCover finding of the coordinated
// campaign is catalogued (records that fail to decode fail the round
// before this check runs).
func checkCoord(jobs []fleet.Job, outs []harness.FleetOutcome, _ sizing) []string {
	bad := checkKinds(jobs, outs)
	for i, o := range outs {
		if o.Campaign == nil {
			continue
		}
		for _, f := range o.Fuzz().Findings {
			if _, ok := harness.BugBySignature(f.Signature); !ok {
				bad = append(bad, fmt.Sprintf("%s: finding %s is not catalogued", jobs[i].Label(), f.Signature))
			}
		}
	}
	return bad
}

// outcomeDigest hashes what a round computed: per job, its spec, packets,
// simulated time, and every finding's signature, packet count, and
// discovery time. Flight-recorder traces are left out, so observing a
// campaign does not change its digest.
func outcomeDigest(jobs []fleet.Job, outs []harness.FleetOutcome) string {
	h := sha256.New()
	for i, job := range jobs {
		res := outs[i].Fuzz()
		if res == nil {
			fmt.Fprintf(h, "%s seed=%d failed\n", job.Label(), job.Seed)
			continue
		}
		fmt.Fprintf(h, "%s seed=%d chaos=%d packets=%d elapsed=%d\n", job.Label(), job.Seed, job.ChaosSeed, res.PacketsSent, res.Elapsed)
		for _, f := range res.Findings {
			fmt.Fprintf(h, "  %s packets=%d elapsed=%d\n", f.Signature, f.Packets, f.Elapsed)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
