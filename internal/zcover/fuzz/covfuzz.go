package fuzz

import (
	"zcover/internal/cmdclass"
	"zcover/internal/corpus"
	"zcover/internal/coverage"
	"zcover/internal/telemetry"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// Coverage-guided engine metrics. The coverage_* counters take each
// campaign's collector totals once, when it ends.
var (
	mCovCampaigns = telemetry.Default().Counter("covfuzz_campaigns_total")
	mCovDeduped   = telemetry.Default().Counter("covfuzz_dedup_skipped_total")
	mCovRounds    = telemetry.Default().Counter("covfuzz_rounds_total")
	mInputs       = telemetry.Default().Counter("coverage_inputs_total")
	mNovelInputs  = telemetry.Default().Counter("coverage_novel_inputs_total")
	mFeatures     = telemetry.Default().Counter("coverage_features_total")
)

// CovResult is a coverage-guided campaign summary: the base campaign
// result plus the coverage map's final state and the corpus it grew.
type CovResult struct {
	Result
	// Coverage is the final behavioral-coverage snapshot.
	Coverage coverage.Stats `json:"coverage"`
	// CorpusSize is the number of admitted seeds.
	CorpusSize int `json:"corpus_size"`
	// SeedsMinimized counts corpus seeds that minimisation reduced.
	SeedsMinimized int `json:"seeds_minimized,omitempty"`
	// Rounds is how many corpus-exploitation rounds completed.
	Rounds int `json:"rounds"`
}

// CovEngine is the coverage-guided counterpart of Engine. It shares the
// send/observe/liveness machinery (runPayload) and the spec-driven quick
// pass, but replaces Algorithm 1's fixed per-class windows with a
// behavioral-coverage feedback loop: inputs that light up new coverage-map
// features are admitted to a corpus, and campaign time is spent mutating
// admitted seeds in proportion to the novelty they contributed.
//
// Determinism contract: given the same device, seeds, queue, and budgets,
// a CovEngine campaign replays byte-identically — all scheduling state
// lives in slices and dense indexes (no map iteration), variants derive
// from (campaignSeed, seed ID, visit index), and time comes from the
// simulated clock. The corpus journal verifies this on resume.
type CovEngine struct {
	*Engine
	cov  *coverage.Collector
	corp *corpus.Manager

	// tested dedups exact payloads: the coverage map cannot change on a
	// byte-identical re-send, so the frame budget is better spent
	// elsewhere. Lookup only — never iterated.
	tested map[string]bool

	// visits is the per-seed variant cursor, indexed by seed ID. It only
	// grows, so a revisited seed draws fresh variants each round.
	visits []int
}

// NewCov builds a coverage-guided engine. campaignSeed feeds the corpus
// manager's deterministic variant derivation; the caller wires the
// returned engine's Coverage() collector into the testbed hooks
// (controller, serial API, oracle bus) and the oracle bus subscription via
// Observe, exactly as with New.
func NewCov(d *dongle.Dongle, fp scan.Fingerprint, queue []*cmdclass.Class, mut *mutate.Mutator, device string, campaignSeed int64, cfg Config) (*CovEngine, error) {
	base, err := New(d, fp, queue, mut, StrategyCoverage, device, cfg)
	if err != nil {
		return nil, err
	}
	return &CovEngine{
		Engine: base,
		cov:    coverage.NewCollector(),
		corp:   corpus.NewManager(mut, queue, campaignSeed),
		tested: make(map[string]bool),
	}, nil
}

// Coverage exposes the engine's collector for testbed hook wiring.
func (e *CovEngine) Coverage() *coverage.Collector { return e.cov }

// Corpus exposes the engine's corpus manager, e.g. to attach a journal
// (corpus.Manager.AttachJournal) or a minimizer before Run.
func (e *CovEngine) Corpus() *corpus.Manager { return e.corp }

// Run executes the coverage-guided campaign.
//
// Stage 1 is the generational engine's quick pass verbatim — every class's
// cheap sweeps in priority order — so the coverage-guided engine never
// gives up the spec-driven baseline; it seeds both the coverage map and
// the corpus. Stage 2 then loops over the corpus in admission order,
// spending each seed's energy on deterministic variants (three havoc
// draws, then one continuation of the seed class's position-sensitive
// mutation stream, repeating), until the time or frame budget runs out.
func (e *CovEngine) Run() (*CovResult, error) {
	mCovCampaigns.Inc()
	streams := e.begin()

	// Stage 1: spec-driven quick pass (identical coverage of the queue).
	if err := e.quickPass(streams, e.covTest); err != nil {
		return nil, err
	}

	// Stage 2: coverage-guided corpus exploitation with an exploration
	// tax — each round first continues every class stream by one draw
	// (classes the corpus never admitted still get deeper structural
	// mutations), then walks the corpus in admission order spending each
	// seed's energy budget on variants.
	rounds := 0
	for !e.Exhausted() {
		sentBefore := e.res.PacketsSent

		for _, stream := range streams {
			if e.Exhausted() {
				break
			}
			if stream.Exhausted() {
				continue
			}
			if err := e.covTest(e.drawFiltered(stream)); err != nil {
				return nil, err
			}
		}

		for i := 0; i < e.corp.Len() && !e.Exhausted(); i++ {
			s := e.corp.Seed(i)
			for k := 0; k < s.Energy && !e.Exhausted(); k++ {
				for len(e.visits) <= s.ID {
					e.visits = append(e.visits, 0)
				}
				v := e.corp.Variant(s, e.visits[s.ID])
				e.visits[s.ID]++
				if err := e.covTest(v); err != nil {
					return nil, err
				}
			}
		}

		rounds++
		mCovRounds.Inc()
		if e.res.PacketsSent == sentBefore {
			// The whole round deduplicated away (exhausted streams, tiny
			// corpus): charge an idle gap so the time budget still drains
			// instead of spinning.
			e.clock.Advance(dongle.InterTestGap)
		}
	}

	out := &CovResult{
		Result:     *e.finish(),
		Coverage:   e.cov.Stats(),
		CorpusSize: e.corp.Len(),
		Rounds:     rounds,
	}
	mInputs.Add(int64(out.Coverage.Inputs))
	mNovelInputs.Add(int64(out.Coverage.NovelInputs))
	mFeatures.Add(int64(out.Coverage.Features))
	for _, s := range e.corp.Seeds() {
		if s.Minimized {
			out.SeedsMinimized++
		}
	}
	return out, nil
}

// covTest runs one payload under coverage measurement and admits it to
// the corpus when it lights up new features. Byte-identical re-sends are
// skipped: they cannot change the map.
func (e *CovEngine) covTest(payload []byte) error {
	if len(payload) >= 2 && e.crashedCmds[[2]byte{payload[0], payload[1]}] {
		return nil // known hang: the generational engine filters these too
	}
	key := string(payload) // a copy: payload may be a reused stream buffer
	if e.tested[key] {
		mCovDeduped.Inc()
		return nil
	}
	e.tested[key] = true

	e.cov.BeginInput()
	newFinding, _ := e.runPayload(payload)
	newFeat := e.cov.EndInput()
	if newFeat == 0 {
		return nil
	}

	sig := ""
	if newFinding && len(e.res.Findings) > 0 {
		sig = e.res.Findings[len(e.res.Findings)-1].Signature
	}
	var trace []telemetry.FrameRecord
	if e.cfg.Recorder != nil {
		trace = e.cfg.Recorder.Snapshot()
	}
	_, err := e.corp.Admit(payload, newFeat, sig, trace)
	return err
}
