package harness

import (
	"fmt"
	"strconv"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/oracle"
	"zcover/internal/report"
	"zcover/internal/zcover/fuzz"
)

// distinctKinds counts the distinct oracle effect classes among findings
// — hangs, node tampering, database overwrites, ... — the "discovery
// classes" the engine comparison is scored on.
func distinctKinds(findings []fuzz.Finding) int {
	seen := make(map[oracle.Kind]bool, len(findings))
	for _, f := range findings {
		seen[f.Event.Kind] = true
	}
	return len(seen)
}

// framesToFirst reports the frame count at the first finding, 0 if none.
func framesToFirst(findings []fuzz.Finding) int {
	if len(findings) == 0 {
		return 0
	}
	return findings[0].Packets
}

// CovFuzzRow is one device's engine comparison under the same budget.
type CovFuzzRow struct {
	Index        string
	Frames       int
	GenVulns     int
	GenKinds     int
	GenFirst     int
	CovVulns     int
	CovKinds     int
	CovFirst     int
	CovCorpus    int
	CovFeatures  int
	CovDensity   float64
	SeedsMinimal int
}

// covFuzzFramesPerTest is the nominal simulated cost of one test cycle
// (response window + inter-test gap), used to convert a time budget into
// the frame cap both engines get. Real cycles run slightly longer, so the
// cap is never the binding limit.
const covFuzzFramesPerTest = 500 * time.Millisecond

// CovFuzzTable compares the coverage-guided engine against the
// generational engine on D1–D5. Both engines run the identical discovery
// pipeline and get the same time budget and the same frame cap
// (duration/500ms); neither reaches the cap, so both stop at the time
// budget. The table reports unique findings, distinct discovery classes,
// frames to first discovery, and the coverage map's final state.
func CovFuzzTable(duration time.Duration, cfg fleet.Config) (*report.Table, []CovFuzzRow, error) {
	if duration <= 0 {
		duration = 24 * time.Hour
	}
	frames := int(duration / covFuzzFramesPerTest)
	out := &report.Table{
		Title: "Coverage-guided vs generational fuzzing at equal frame budget",
		Headers: []string{"ID", "Frames", "Gen #Vul", "Gen Kinds", "Gen 1st",
			"Cov #Vul", "Cov Kinds", "Cov 1st", "Corpus", "Features", "Density"},
		Notes: []string{
			"Both engines run the full discovery pipeline with the same time budget",
			"and frame cap (budget/500ms); neither reaches the cap, so both stop at",
			"the time budget. 1st is the frame count of the first discovery (0 = none).",
			"Features/Density describe the behavioral coverage map (dispatch state x",
			"CMDCL x encap depth x security class, Serial API handlers, oracle events).",
		},
	}
	devices := []string{"D1", "D2", "D3", "D4", "D5"}
	var jobs []fleet.Job
	for _, idx := range devices {
		seed := deviceSeed(idx)
		jobs = append(jobs,
			fleet.Job{Name: "covfuzz/" + idx + "/gen", Device: idx,
				Strategy: fuzz.StrategyFull, Seed: seed, Budget: duration, Frames: frames},
			fleet.Job{Name: "covfuzz/" + idx + "/cov", Device: idx,
				Strategy: fuzz.StrategyFull, FuzzMode: fleet.ModeCoverage,
				Seed: seed, Budget: duration, Frames: frames})
	}
	outs, err := runCampaigns("covfuzz", jobs, cfg)
	if err != nil {
		return nil, nil, err
	}
	var rows []CovFuzzRow
	for i, idx := range devices {
		gen := outs[2*i].Campaign.Fuzz
		cov := outs[2*i+1].CovFuzz
		row := CovFuzzRow{
			Index:    idx,
			Frames:   frames,
			GenVulns: len(gen.Findings), GenKinds: distinctKinds(gen.Findings),
			GenFirst: framesToFirst(gen.Findings),
			CovVulns: len(cov.Findings), CovKinds: distinctKinds(cov.Findings),
			CovFirst:  framesToFirst(cov.Findings),
			CovCorpus: cov.CorpusSize, CovFeatures: cov.Coverage.Features,
			CovDensity:   cov.Coverage.Density,
			SeedsMinimal: cov.SeedsMinimized,
		}
		rows = append(rows, row)
		out.AddRow(idx, strconv.Itoa(row.Frames),
			strconv.Itoa(row.GenVulns), strconv.Itoa(row.GenKinds), strconv.Itoa(row.GenFirst),
			strconv.Itoa(row.CovVulns), strconv.Itoa(row.CovKinds), strconv.Itoa(row.CovFirst),
			strconv.Itoa(row.CovCorpus), strconv.Itoa(row.CovFeatures),
			fmt.Sprintf("%.5f", row.CovDensity))
	}
	return out, rows, nil
}
