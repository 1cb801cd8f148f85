// Package minimize reduces bug-triggering payloads to minimal
// proof-of-concept packets. The paper develops PoC exploits manually after
// fuzzing ("After validation, we develop proof-of-concept (PoC) exploits
// for selected critical vulnerabilities", §IV-A); this package automates
// the mechanical part: given a finding's trigger payload, it searches for
// the shortest, most-zeroed payload that still fires the same anomaly
// signature on a fresh instance of the device.
//
// Minimisation never touches the campaign's live target — each probe runs
// against a freshly assembled testbed, exactly as a researcher re-flashing
// the device between PoC attempts.
package minimize

import (
	"fmt"

	"zcover/internal/oracle"
	"zcover/internal/testbed"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/scan"
)

// Result is a minimisation outcome.
type Result struct {
	// Original and Minimal are the input and reduced payloads.
	Original, Minimal []byte
	// Probes counts the candidate payloads tried.
	Probes int
}

// Saved reports how many bytes minimisation removed.
func (r Result) Saved() int { return len(r.Original) - len(r.Minimal) }

// Minimizer reduces payloads against fresh instances of one device model.
type Minimizer struct {
	device string
	seed   int64
}

// New builds a minimiser for the given testbed device.
func New(device string, seed int64) *Minimizer {
	return &Minimizer{device: device, seed: seed}
}

// triggers reports whether the payload fires the signature on a fresh
// device.
func (m *Minimizer) triggers(payload []byte, signature string) (bool, error) {
	tb, err := testbed.New(m.device, m.seed)
	if err != nil {
		return false, err
	}
	defer tb.Publish()
	fired := false
	tb.Bus.Subscribe(func(ev oracle.Event) {
		if ev.Signature() == signature {
			fired = true
		}
	})
	d := dongle.New(tb.Medium, tb.Region)
	if _, err := d.SendAndObserve(tb.Home(), scan.AttackerNodeID, testbed.ControllerID,
		payload, dongle.DefaultResponseWindow); err != nil {
		return false, err
	}
	return fired, nil
}

// Minimize reduces the payload while preserving the anomaly signature. The
// search is greedy and deterministic: first trim trailing bytes, then zero
// every remaining byte position (CMDCL and CMD are structural and left
// untouched).
func (m *Minimizer) Minimize(payload []byte, signature string) (Result, error) {
	res := Result{Original: append([]byte{}, payload...)}
	ok, err := m.triggers(payload, signature)
	if err != nil {
		return res, err
	}
	if !ok {
		return res, fmt.Errorf("minimize: payload does not reproduce %s on a fresh %s", signature, m.device)
	}

	cur := append([]byte{}, payload...)

	// Phase 1: trim from the tail, keeping at least CMDCL+CMD.
	for len(cur) > 2 {
		candidate := cur[:len(cur)-1]
		res.Probes++
		ok, err := m.triggers(candidate, signature)
		if err != nil {
			return res, err
		}
		if !ok {
			break
		}
		cur = candidate
	}

	// Phase 2: zero each remaining parameter byte.
	for i := 2; i < len(cur); i++ {
		if cur[i] == 0x00 {
			continue
		}
		candidate := append([]byte{}, cur...)
		candidate[i] = 0x00
		res.Probes++
		ok, err := m.triggers(candidate, signature)
		if err != nil {
			return res, err
		}
		if ok {
			cur = candidate
		}
	}

	res.Minimal = cur
	return res, nil
}
