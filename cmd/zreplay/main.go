// Command zreplay works with ZCover bug logs: it replays a saved log
// (from zcover -buglog-out, or the -buglog-out of experiments and
// zcover coordinate) as single-packet proof-of-concept exploits against
// fresh devices, replays the built-in catalogue of the paper's fifteen
// PoCs, or summarises a span trace written by -trace-out.
//
// Usage:
//
//	zcover -target D1 -duration 1h -buglog-out bugs.jsonl   # fuzz + save
//	zreplay -log bugs.jsonl                                  # replay a log
//	zreplay -log bugs.jsonl -minimize                        # minimise, then replay
//	zreplay -catalog                                         # replay Table III PoCs
//	zreplay -trace spans.jsonl                               # summarise a trace
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	"zcover"
	"zcover/internal/cmdclass"
	"zcover/internal/decode"
	"zcover/internal/harness"
	"zcover/internal/telemetry"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/minimize"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "zreplay:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("zreplay", flag.ContinueOnError)
	logPath := fs.String("log", "", "bug log to replay")
	catalog := fs.Bool("catalog", false, "replay the paper's Table III PoC catalogue")
	minimise := fs.Bool("minimize", false, "minimise each trigger payload before replaying")
	seed := fs.Int64("seed", 1, "deterministic seed")
	tracePath := fs.String("trace", "", "span trace file (from -trace-out) to summarise")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *tracePath != "":
		return summariseTrace(*tracePath)
	case *logPath != "":
		f, err := os.Open(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		entries, err := fuzz.ReadLog(f)
		if err != nil {
			return err
		}
		if *minimise {
			entries = minimiseEntries(entries, *seed)
		}
		return replay(entries, *seed)
	case *catalog:
		var entries []fuzz.LogEntry
		for _, b := range zcover.PaperBugs() {
			entries = append(entries, fuzz.LogEntry{
				Device:    b.PoCDevice,
				Signature: b.Signature,
				Payload:   hex.EncodeToString(b.PoCPayload),
				Detail:    fmt.Sprintf("bug %02d, %s", b.ID, b.Confirmed),
			})
		}
		return replay(entries, *seed)
	default:
		return fmt.Errorf("one of -log, -catalog, or -trace is required")
	}
}

// summariseTrace prints the spans of a -trace-out file in order, each with
// its clock: sim for pipeline phases, wall for fleet jobs.
func summariseTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.ReadTrace(f)
	if err != nil {
		return err
	}
	for _, ev := range events {
		attrs := ""
		for _, k := range []string{"job", "device", "strategy", "outcome", "attempts", "error"} {
			if v, ok := ev.Attrs[k]; ok {
				attrs += fmt.Sprintf(" %s=%s", k, v)
			}
		}
		clock := "wall"
		if ev.Kind == "phase" {
			clock = "sim"
		}
		fmt.Printf("%-8s %-24s %12.3fs %-4s%s\n", ev.Kind, ev.Name, ev.DurSec, clock, attrs)
	}
	fmt.Printf("\n%d spans\n", len(events))
	return nil
}

// minimiseEntries reduces each entry's payload to a minimal PoC.
func minimiseEntries(entries []fuzz.LogEntry, seed int64) []fuzz.LogEntry {
	out := make([]fuzz.LogEntry, 0, len(entries))
	for _, e := range entries {
		payload, err := e.TriggerPayload()
		if err != nil {
			out = append(out, e)
			continue
		}
		m := minimize.New(e.Device, seed)
		res, err := m.Minimize(payload, e.Signature)
		if err != nil {
			out = append(out, e) // state-dependent trigger: keep as logged
			continue
		}
		e.Payload = hex.EncodeToString(res.Minimal)
		if res.Saved() > 0 {
			e.Detail += fmt.Sprintf(" (minimised, -%d bytes)", res.Saved())
		}
		out = append(out, e)
	}
	return out
}

// replay verifies each entry as a single-packet PoC on a fresh device.
func replay(entries []fuzz.LogEntry, seed int64) error {
	results, err := harness.VerifyPoCs(entries, seed)
	if err != nil {
		return err
	}
	reg := cmdclass.MustLoad()
	reproduced := 0
	for _, r := range results {
		status := "NOT REPRODUCED"
		if r.Reproduced {
			status = "reproduced"
			reproduced++
		}
		payload, _ := r.Entry.TriggerPayload()
		detail := r.Entry.Detail
		if n := len(r.Entry.Trace); n > 0 {
			detail += fmt.Sprintf(" [%d-frame trace]", n)
		}
		fmt.Printf("%-14s  %-32s  %-34s  %s\n",
			status, r.Entry.Signature, decode.Payload(reg, payload), detail)
	}
	fmt.Printf("\n%d/%d proof-of-concept exploits reproduced on fresh devices\n",
		reproduced, len(results))
	return nil
}
