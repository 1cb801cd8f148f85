// Package vfuzz reimplements the VFuzz baseline (Nkuba et al., "Riding the
// IoT Wave With VFuzz", IEEE Access 2022) as the paper's comparison target
// (§IV-C, Table V). VFuzz is a MAC-frame fuzzer built for slave devices:
// it mutates fields across the whole Z-Wave frame — home ID, frame
// control, length, addresses — and sweeps the full 256-value CMDCL space
// with random payload bytes, with no knowledge of the controller's
// implemented command classes and no position-aware payload mutation.
//
// Those two differences are exactly why the paper finds the tools'
// results disjoint: VFuzz's broken MAC fields reach the chipset's frame
// parser (where the legacy one-day bugs live) but its payloads almost
// never form the structured application commands ZCover's bugs need.
package vfuzz

import (
	"math/rand"

	"zcover/internal/protocol"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/scan"
)

// StrategyVFuzz labels VFuzz results in shared reporting.
const StrategyVFuzz fuzz.Strategy = "vfuzz"

// Engine drives one VFuzz campaign on the fuzz package's test cycle, which
// keeps its budgets, findings, timeline and recovery wait exactly as it
// does ZCover's, so Table V compares equal simulated budgets.
type Engine struct {
	*fuzz.Cycle
	dongle *dongle.Dongle
	home   protocol.HomeID
	target protocol.NodeID
	rng    *rand.Rand

	// Per-iteration scratch: nextFrame's result is consumed within one test
	// cycle (findings copy the trigger payload), so the payload and encode
	// buffers are recycled across iterations.
	payloadBuf []byte
	frameBuf   []byte
}

// New builds a VFuzz engine against the target controller; seed drives
// its frame stream. Like ZCover, VFuzz learns the home ID and node ID by
// scanning first; the caller passes them in.
func New(d *dongle.Dongle, home protocol.HomeID, target protocol.NodeID, seed int64, cfg fuzz.Config) (*Engine, error) {
	c, err := fuzz.NewCycle(d, home, target, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{
		Cycle:  c,
		dongle: d,
		home:   home,
		target: target,
		rng:    rand.New(rand.NewSource(seed)),

		payloadBuf: make([]byte, 9),
		frameBuf:   make([]byte, 0, protocol.MaxFrameSize),
	}, nil
}

// Run executes the campaign. Unlike ZCover, VFuzz pings after every test,
// keeps no log of crashing commands, and takes no final timeline sample.
func (e *Engine) Run() *fuzz.Result {
	e.Begin(&fuzz.Result{Strategy: StrategyVFuzz, ClassesCovered: 256, CommandsCovered: 256})
	for !e.Exhausted() {
		raw := e.nextFrame()
		e.Inject()
		_ = e.dongle.SendRaw(raw)
		// VFuzz's device-behaviour fingerprinting sends a state probe
		// after every test case: two response windows make its cycle
		// slower than ZCover's.
		e.dongle.Clock().Advance(2 * dongle.DefaultResponseWindow)
		e.Drain(raw)
		if !e.Ping() {
			e.AwaitRecovery()
		}
		e.Pace()
	}
	return e.End()
}

// nextFrame builds one VFuzz test frame: a valid base frame with a random
// application payload (uniform CMDCL/CMD/PARAM bytes), then one to three
// MAC-field mutations, checksum recomputed unless the checksum itself was
// the mutation target.
func (e *Engine) nextFrame() []byte {
	payload := e.payloadBuf[:2+e.rng.Intn(8)]
	for i := range payload {
		payload[i] = byte(e.rng.Intn(256))
	}
	f := protocol.NewDataFrame(e.home, scan.AttackerNodeID, e.target, payload)
	raw, err := f.AppendEncode(e.frameBuf[:0])
	if err != nil {
		raw = append(e.frameBuf[:0], 0, 0, 0, 0, 0, 0, 0, 10, 0, 0)
	}

	fixChecksum := true
	for n := 4 + e.rng.Intn(4); n > 0; n-- {
		switch e.rng.Intn(8) {
		case 0: // home ID byte
			raw[e.rng.Intn(4)] ^= byte(1 + e.rng.Intn(255))
		case 1: // source
			raw[4] = byte(e.rng.Intn(256))
		case 2: // frame control P1
			raw[5] = byte(e.rng.Intn(256))
		case 3: // frame control P2
			raw[6] = byte(e.rng.Intn(256))
		case 4: // LEN
			raw[7] = byte(e.rng.Intn(256))
		case 5: // destination
			raw[8] = byte(e.rng.Intn(256))
		case 6: // truncate the frame
			if len(raw) > protocol.HeaderSize {
				raw = raw[:protocol.HeaderSize+e.rng.Intn(len(raw)-protocol.HeaderSize)]
			}
		default: // checksum itself
			raw[len(raw)-1] = byte(e.rng.Intn(256))
			fixChecksum = false
		}
	}
	if fixChecksum && len(raw) > 1 {
		raw[len(raw)-1] = protocol.CS8(raw[:len(raw)-1])
	}
	if len(raw) > protocol.MaxFrameSize {
		raw = raw[:protocol.MaxFrameSize]
	}
	return raw
}
