package harness

import (
	"fmt"
	"slices"

	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/minimize"
)

// PoCResult is the outcome of replaying one logged trigger against a
// fresh testbed — the "develop proof-of-concept exploits for selected
// critical vulnerabilities" step of the paper's feedback loop, automated.
type PoCResult struct {
	// Entry is the replayed log entry.
	Entry fuzz.LogEntry
	// Reproduced reports whether the same anomaly signature fired again.
	Reproduced bool
	// Observed lists the signatures the replay actually produced.
	Observed []string
}

// VerifyPoCs replays each logged trigger payload against a *fresh*
// instance of its device (minimize.Probe) and checks that the same
// anomaly reproduces.
func VerifyPoCs(entries []fuzz.LogEntry, seed int64) ([]PoCResult, error) {
	out := make([]PoCResult, 0, len(entries))
	for i, e := range entries {
		payload, err := e.TriggerPayload()
		if err != nil {
			return nil, fmt.Errorf("harness: entry %d: %w", i, err)
		}
		observed, err := minimize.Probe(e.Device, seed, payload)
		if err != nil {
			return nil, fmt.Errorf("harness: entry %d: %w", i, err)
		}
		out = append(out, PoCResult{Entry: e, Observed: observed,
			Reproduced: slices.Contains(observed, e.Signature)})
	}
	return out, nil
}
