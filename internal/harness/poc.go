package harness

import (
	"fmt"

	"zcover/internal/oracle"
	"zcover/internal/testbed"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/scan"
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
// instance of its device (the single-packet PoC condition: no fuzzing
// history, just the one injection) and checks that the same anomaly
// reproduces.
func VerifyPoCs(entries []fuzz.LogEntry, seed int64) ([]PoCResult, error) {
	out := make([]PoCResult, 0, len(entries))
	for i, e := range entries {
		payload, err := e.TriggerPayload()
		if err != nil {
			return nil, fmt.Errorf("harness: entry %d: %w", i, err)
		}
		tb, err := testbed.New(e.Device, seed)
		if err != nil {
			return nil, fmt.Errorf("harness: entry %d: %w", i, err)
		}
		var observed []string
		tb.Bus.Subscribe(func(ev oracle.Event) { observed = append(observed, ev.Signature()) })

		d := dongle.New(tb.Medium, tb.Region)
		if _, err := d.SendAndObserve(tb.Home(), scan.AttackerNodeID, testbed.ControllerID,
			payload, dongle.DefaultResponseWindow); err != nil {
			return nil, fmt.Errorf("harness: entry %d: %w", i, err)
		}
		tb.Publish()

		res := PoCResult{Entry: e, Observed: observed}
		for _, sig := range observed {
			if sig == e.Signature {
				res.Reproduced = true
			}
		}
		out = append(out, res)
	}
	return out, nil
}
