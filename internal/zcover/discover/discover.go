// Package discover implements phase 2 of ZCover: unknown-properties
// discovery (§III-C of the paper). It clusters the public specification
// for controller-relevant command classes the target did not list, then
// runs systematic validation testing — a sweep from CMDCL 0x00 upward —
// to find proprietary classes that are absent from the specification
// entirely, and to confirm which commands the firmware actually processes.
package discover

import (
	"fmt"
	"sort"

	"zcover/internal/cmdclass"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/scan"
)

// CmdRef names one confirmed (class, command) pair.
type CmdRef struct {
	Class cmdclass.ClassID
	Cmd   cmdclass.CommandID
}

// Result is the discovery-phase output: everything phase 3 needs to build
// its prioritised fuzzing queue.
type Result struct {
	// ListedClasses resolves the fingerprint's listed IDs against the spec.
	ListedClasses []*cmdclass.Class
	// UnlistedSpec holds controller-cluster classes the target did not
	// list (26 for the modern controllers of Table IV).
	UnlistedSpec []*cmdclass.Class
	// HiddenConfirmed holds out-of-spec proprietary classes that
	// validation testing confirmed functional (0x01 and 0x02).
	HiddenConfirmed []*cmdclass.Class
	// ConfirmedCommands lists the (class, command) pairs that elicited
	// responses during validation (53 in Table V).
	ConfirmedCommands []CmdRef
	// Prioritized is the final fuzzing queue: listed + unlisted + hidden,
	// ordered by descending command count (45 classes in Table V).
	Prioritized []*cmdclass.Class
	// ProbesSent counts validation packets used.
	ProbesSent int
}

// UnknownCount reports the "Unknown CMDCLs" column of Table IV:
// spec-inferred unlisted candidates plus validated proprietary classes.
func (r Result) UnknownCount() int {
	return len(r.UnlistedSpec) + len(r.HiddenConfirmed)
}

// genericSweepCommands is how many command IDs the out-of-spec sweep tries
// per unknown class ID before giving up on it.
const genericSweepCommands = 8

// Run executes the full discovery phase against a fingerprinted target.
func Run(d *dongle.Dongle, reg *cmdclass.Registry, fp scan.Fingerprint) (Result, error) {
	if reg == nil {
		return Result{}, fmt.Errorf("discover: nil registry")
	}
	var res Result

	listed := make(map[cmdclass.ClassID]bool, len(fp.Listed))
	for _, id := range fp.Listed {
		listed[id] = true
		if cls, ok := reg.Get(id); ok {
			res.ListedClasses = append(res.ListedClasses, cls)
		}
	}

	// Step 1 (§III-C1): cluster the specification and subtract the listed
	// set. Everything left is an unlisted candidate the controller should
	// support by classification.
	for _, cls := range reg.ControllerCluster() {
		if !listed[cls.ID] {
			res.UnlistedSpec = append(res.UnlistedSpec, cls)
		}
	}

	// Step 2 (§III-C2): systematic validation testing, sweeping class IDs
	// from 0x00 to the upper limit of the candidate list.
	upper := cmdclass.ClassID(0)
	for _, cls := range reg.ControllerCluster() {
		if cls.ID > upper {
			upper = cls.ID
		}
	}
	for cid := cmdclass.ClassID(0x01); ; cid++ {
		if _, inSpec := reg.Get(cid); !inSpec {
			if cls := probeUnknownClass(d, fp, cid, &res.ProbesSent); cls != nil {
				res.HiddenConfirmed = append(res.HiddenConfirmed, cls)
			}
		}
		if cid == upper {
			break
		}
	}

	// Step 3: confirm which commands of the full candidate pool the
	// firmware visibly processes, using safe spec-shaped probes.
	pool := res.pool()
	for _, cls := range pool {
		for _, cmd := range cls.Commands {
			res.ProbesSent++
			ex, err := d.SendAndObserve(fp.Home, scan.AttackerNodeID, fp.Controller,
				BuildSafeProbe(cls, cmd, fp), dongle.DefaultResponseWindow)
			if err != nil {
				return res, fmt.Errorf("discover: probing %s/%s: %w", cls.ID, cmd.ID, err)
			}
			if len(ex.Responses) > 0 {
				res.ConfirmedCommands = append(res.ConfirmedCommands, CmdRef{Class: cls.ID, Cmd: cmd.ID})
			}
			waitRecovery(d, fp)
		}
	}
	sort.Slice(res.ConfirmedCommands, func(i, j int) bool {
		a, b := res.ConfirmedCommands[i], res.ConfirmedCommands[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Cmd < b.Cmd
	})

	// Step 4: prioritise the queue by command count (§III-C1,
	// "Prioritizing CMDCLs").
	res.Prioritized = cmdclass.PrioritizeByCommandCount(pool)
	return res, nil
}

// pool assembles the candidate class set: listed + unlisted + hidden.
func (r *Result) pool() []*cmdclass.Class {
	out := make([]*cmdclass.Class, 0, len(r.ListedClasses)+len(r.UnlistedSpec)+len(r.HiddenConfirmed))
	out = append(out, r.ListedClasses...)
	out = append(out, r.UnlistedSpec...)
	out = append(out, r.HiddenConfirmed...)
	return out
}

// probeUnknownClass sends generic probes for a class ID that is absent
// from the public specification. A response means the firmware implements
// a proprietary class; its structure is then resolved against the known
// proprietary definitions (derived, as in the paper, from chipset
// documentation and observed behaviour).
func probeUnknownClass(d *dongle.Dongle, fp scan.Fingerprint, cid cmdclass.ClassID, probes *int) *cmdclass.Class {
	for cmd := byte(0x01); cmd <= genericSweepCommands; cmd++ {
		*probes++
		ex, err := d.SendAndObserve(fp.Home, scan.AttackerNodeID, fp.Controller,
			[]byte{byte(cid), cmd, 0x00}, dongle.DefaultResponseWindow)
		if err != nil {
			return nil
		}
		if len(ex.Responses) > 0 {
			if cls, ok := cmdclass.HiddenClass(cid); ok {
				return cls
			}
			// A responding class with no known definition is still a
			// candidate: synthesise a minimal definition so the mutator
			// can target it.
			return &cmdclass.Class{
				ID: cid, Name: fmt.Sprintf("PROPRIETARY_0x%02X", byte(cid)),
				Category: cmdclass.CategoryManagement, Scope: cmdclass.ScopeController,
			}
		}
	}
	return nil
}

// BuildSafeProbe constructs a spec-shaped, semantically benign packet for
// one command: full fixed-parameter length, legal values everywhere, no
// boundary or junk bytes. These are the packets validation testing sends —
// designed to elicit normal processing, not crashes.
func BuildSafeProbe(cls *cmdclass.Class, cmd cmdclass.Command, fp scan.Fingerprint) []byte {
	out := []byte{byte(cls.ID), byte(cmd.ID)}
	for _, p := range cmd.Params {
		if p.Kind == cmdclass.ParamVariadic {
			break
		}
		out = append(out, safeValue(p, fp))
	}
	return out
}

// safeValue picks the benign probe value for one parameter.
func safeValue(p cmdclass.Param, fp scan.Fingerprint) byte {
	switch p.Kind {
	case cmdclass.ParamNodeID:
		return byte(fp.Controller)
	case cmdclass.ParamRange:
		return p.Min
	case cmdclass.ParamEnum:
		if len(p.Values) > 0 {
			return p.Values[0]
		}
		return 0x00
	default: // byte, bitmask
		return 0x00
	}
}

// waitRecovery pauses until the target answers liveness probes again, in
// case a probe unexpectedly disturbed it. Validation probes are designed
// to be safe, so this almost never waits — but a discovery phase must not
// silently leave the controller hung for the fuzzing phase.
func waitRecovery(d *dongle.Dongle, fp scan.Fingerprint) {
	for i := 0; i < 120; i++ {
		if d.Ping(fp.Home, scan.AttackerNodeID, fp.Controller) {
			return
		}
		d.Clock().Advance(dongle.PingRetry)
	}
}
