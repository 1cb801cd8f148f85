// Package zcover is a from-scratch Go reproduction of ZCover, the Z-Wave
// controller security-analysis framework of Nkuba et al. (DSN 2025):
// "ZCover: Uncovering Z-Wave Controller Vulnerabilities Through Systematic
// Security Analysis of Application Layer Implementation".
//
// The library bundles two things:
//
//   - A simulated Z-Wave smart home standing in for the paper's hardware
//     testbed: a software-defined sub-GHz air, emulated controllers D1–D7
//     carrying the paper's fifteen Table III vulnerability models, an
//     S2-paired door lock, and a legacy binary switch.
//
//   - The ZCover pipeline itself: passive/active fingerprinting, unknown
//     command-class discovery (spec clustering plus validation testing),
//     and the position-sensitive mutation fuzzer — plus a reimplementation
//     of the VFuzz baseline for comparison.
//
// The quickest way in:
//
//	job := zcover.FleetJob{Device: "D6", Strategy: zcover.StrategyFull, Budget: time.Hour, Seed: 1}
//	tb, err := job.Build()
//	if err != nil { ... }
//	out, err := zcover.Run(tb, job, zcover.Options{})
//	for _, f := range out.Campaign.Fuzz.Findings {
//	    fmt.Println(f.Elapsed, f.Signature)
//	}
//
// The job selects the engine: Baseline runs VFuzz, FuzzMode
// FuzzModeCoverage the coverage-guided engine. RunResumable runs a
// generational job behind a crash-safe checkpoint journal. cmd/zcover is
// the command-line front end for one campaign; its -buglog-out writes
// the findings as the bug log cmd/zreplay replays. Every table and figure
// of the paper's evaluation can be regenerated with the experiment
// drivers (Table3, Table4, Table5, Table6, Fig5, Fig12) or the
// cmd/experiments binary.
package zcover

import (
	"zcover/internal/chaos"
	"zcover/internal/coverage"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/oracle"
	"zcover/internal/report"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/scan"
)

// Version identifies the library release.
const Version = "1.0.0"

// Core workflow types, re-exported from the implementation packages.
type (
	// Testbed is one assembled smart-home system under test.
	Testbed = testbed.Testbed
	// Campaign is a complete ZCover run: fingerprint, discovery, fuzzing.
	Campaign = harness.Campaign
	// Strategy selects the fuzzing configuration.
	Strategy = fuzz.Strategy
	// Result is a fuzzing campaign summary.
	Result = fuzz.Result
	// Finding is one unique vulnerability discovery.
	Finding = fuzz.Finding
	// Fingerprint is the phase-1 output (home ID, node IDs, listed classes).
	Fingerprint = scan.Fingerprint
	// AnomalyEvent is one oracle observation.
	AnomalyEvent = oracle.Event
	// PaperBug is one row of the paper's Table III catalogue.
	PaperBug = harness.PaperBug
	// Table is a rendered experiment table.
	Table = report.Table
	// CSV is a rendered figure series.
	CSV = report.CSV
	// FleetConfig tunes the parallel campaign scheduler (worker count,
	// retry limit, progress callback).
	FleetConfig = fleet.Config
	// FleetProgress is a snapshot of a running campaign fleet, delivered
	// to FleetConfig.OnProgress on every job start, retry and end.
	FleetProgress = fleet.Progress
	// FleetJob is one self-contained campaign spec: Run's input and the
	// scheduler's unit of work.
	FleetJob = fleet.Job
	// Outcome is one campaign's result: exactly one of Campaign (ZCover),
	// Baseline (VFuzz) or CovFuzz (coverage-guided) is set, and Fuzz()
	// returns the fuzzing result of any kind.
	Outcome = harness.FleetOutcome
	// Options attaches observability (finding callback, packet flight
	// recorder, phase hook) to a campaign run, plus the corpus journal
	// of a coverage-guided one.
	Options = harness.Options
	// TraceFrame is one serialised flight-recorder frame in a bug log.
	TraceFrame = fuzz.TraceFrame
	// ChaosProfile is one named channel-impairment configuration for the
	// deterministic fault injector (burst loss, corruption, duplication,
	// jitter, partitions).
	ChaosProfile = chaos.Profile
	// ChaosInjector is the seeded fault injector a profile instantiates;
	// Testbed.ApplyChaos installs one on the simulated air.
	ChaosInjector = chaos.Injector
	// ChaosStats counts the faults an injector has applied, per kind.
	ChaosStats = chaos.Stats
	// ChaosRow is one (device, profile) cell of the chaos robustness table.
	ChaosRow = harness.ChaosRow
	// Confidence is the oracle's grade for a finding: confirmed, or suspect
	// when it overlapped an injected channel fault.
	Confidence = oracle.Confidence
	// CovResult is a coverage-guided campaign summary: the base Result
	// plus the behavioral coverage map's final state and corpus size.
	CovResult = fuzz.CovResult
	// CoverageStats is a behavioral-coverage map snapshot.
	CoverageStats = coverage.Stats
	// CovFuzzRow is one device's engine comparison under the same budget.
	CovFuzzRow = harness.CovFuzzRow
)

// Oracle confidence grades.
const (
	// ConfidenceConfirmed marks a finding observed on a clean channel.
	ConfidenceConfirmed = oracle.ConfidenceConfirmed
	// ConfidenceSuspect marks a finding that overlapped channel impairment.
	ConfidenceSuspect = oracle.ConfidenceSuspect
)

// ParseChaosProfile resolves a profile spec — a builtin name ("burst",
// "noise", "jitter", "partition", "lossy", "stress", "none") optionally
// followed by overrides ("burst:badloss=0.7,partition=lock@1h/5m").
func ParseChaosProfile(spec string) (ChaosProfile, error) {
	return chaos.ParseProfile(spec)
}

// ChaosProfiles lists the builtin profile names.
func ChaosProfiles() []string { return chaos.Profiles() }

// Fuzzing strategies (the three configurations of the paper's ablation).
const (
	// StrategyFull enables every ZCover feature.
	StrategyFull = fuzz.StrategyFull
	// StrategyKnownOnly is the β ablation: listed command classes only.
	StrategyKnownOnly = fuzz.StrategyKnownOnly
	// StrategyRandom is the γ ablation: random classes, naive mutation.
	StrategyRandom = fuzz.StrategyRandom
)

// FuzzModeCoverage is the FleetJob.FuzzMode that selects the
// coverage-guided engine in place of the generational one.
const FuzzModeCoverage = fleet.ModeCoverage

// NewTestbed assembles the simulated smart home around the controller with
// the given testbed index ("D1".."D7", per Table II). seed drives pairing
// entropy deterministically. FleetJob.Build assembles the testbed a job
// describes, fault injector included.
func NewTestbed(index string, seed int64) (*Testbed, error) {
	return testbed.New(index, seed)
}

// NewPatchedTestbed assembles the same smart home around firmware built on
// the updated specification of §V-B: the spec-rooted vulnerabilities are
// closed, implementation bugs remain.
func NewPatchedTestbed(index string, seed int64) (*Testbed, error) {
	return testbed.NewPatched(index, seed)
}

// Run executes one campaign against the testbed's controller: the
// fingerprinting scan, unknown-class discovery, and fuzzing for the job's
// budget on the engine the job selects (see harness.Run).
func Run(tb *Testbed, job FleetJob, opts Options) (Outcome, error) {
	return harness.Run(tb, job, opts)
}

// RunResumable is Run behind a crash-safe checkpoint journal in dir: a
// campaign already journaled for the same job is replayed byte-identically
// (resumed=true) instead of re-executing, and a fresh run journals its
// outcome before returning. An existing journal is refused unless resume
// is set, so a campaign is never double-run by accident. The journal
// covers generational ZCover jobs (device, strategy, budget, seed, chaos);
// a job that sets Baseline, FuzzMode, Patched or Frames is refused.
func RunResumable(dir string, resume bool, tb *Testbed, job FleetJob, opts Options) (Outcome, bool, error) {
	return harness.RunZCoverResumable(dir, resume, tb, job, opts)
}

// PaperBugs returns the paper's Table III vulnerability catalogue.
func PaperBugs() []PaperBug { return harness.PaperBugs() }

// Experiment drivers, one per table and figure of the evaluation section.
// The campaign drivers schedule across a fleet worker pool (FleetConfig);
// their output is identical for any worker count, since each campaign is
// independently seeded on its own testbed.
var (
	// Fig1 dissects the Figure 1 example frame.
	Fig1 = harness.Fig1
	// Fig5 regenerates the command-class distribution of Figure 5.
	Fig5 = harness.Fig5
	// Fig12 regenerates the detection timelines of Figure 12.
	Fig12 = harness.Fig12
	// Figs8to11 reproduces the memory-tampering views of Figures 8-11.
	Figs8to11 = harness.Figs8to11
	// Table2 renders the testbed inventory.
	Table2 = harness.Table2
	// Table3 reruns the zero-day discovery campaign.
	Table3 = harness.Table3
	// Table4 reruns fingerprinting and discovery on all controllers.
	Table4 = harness.Table4
	// Table5 reruns the VFuzz comparison.
	Table5 = harness.Table5
	// Table6 reruns the ablation study.
	Table6 = harness.Table6
	// Remediation validates the §V-B specification-update mitigation.
	Remediation = harness.Remediation
	// RunTrials repeats full campaigns against one device.
	RunTrials = harness.RunTrials
	// ChaosTable5 reruns the Table V ZCover campaigns under impairment
	// profiles and reports detection-robustness deltas.
	ChaosTable5 = harness.ChaosTable5
	// CovFuzzTable compares the coverage-guided engine against the
	// generational engine under the same budget.
	CovFuzzTable = harness.CovFuzzTable
)
