// Command zreplay works with ZCover bug logs: it can run a campaign and
// save its findings as a JSON-lines log, replay a saved log as
// single-packet proof-of-concept exploits against fresh devices, replay
// the built-in catalogue of the paper's fifteen PoCs, or summarise a span
// trace written by -trace-out.
//
// Usage:
//
//	zreplay -hunt -target D1 -duration 1h -out bugs.jsonl   # fuzz + save
//	zreplay -hunt -flight-recorder 16 -out bugs.jsonl        # + frame traces
//	zreplay -log bugs.jsonl                                  # replay a log
//	zreplay -catalog                                         # replay Table III PoCs
//	zreplay -trace spans.jsonl                               # summarise a trace
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"time"

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
	hunt := fs.Bool("hunt", false, "run a fuzzing campaign and save the bug log")
	target := fs.String("target", "D1", "testbed controller (D1..D7)")
	duration := fs.Duration("duration", time.Hour, "campaign budget (with -hunt)")
	out := fs.String("out", "bugs.jsonl", "bug log path (with -hunt)")
	logPath := fs.String("log", "", "bug log to replay")
	catalog := fs.Bool("catalog", false, "replay the paper's Table III PoC catalogue")
	minimise := fs.Bool("minimize", false, "minimise each trigger payload before replaying")
	seed := fs.Int64("seed", 1, "deterministic seed")
	flightDepth := fs.Int("flight-recorder", 0, "with -hunt: attach a packet flight recorder of this depth so findings carry frame traces (0 = off)")
	tracePath := fs.String("trace", "", "span trace file (from -trace-out) to summarise")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *hunt:
		return runHunt(*target, *duration, *out, *seed, *flightDepth)
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
		return fmt.Errorf("one of -hunt, -log, or -catalog is required")
	}
}

// runHunt fuzzes and saves the bug log, with frame traces when a flight
// recorder is attached.
func runHunt(target string, duration time.Duration, out string, seed int64, flightDepth int) error {
	tb, err := zcover.NewTestbed(target, seed)
	if err != nil {
		return err
	}
	job := zcover.FleetJob{Device: target, Strategy: zcover.StrategyFull, Budget: duration, Seed: seed}
	res, err := zcover.Run(tb, job, zcover.Options{FlightRecorderDepth: flightDepth})
	if err != nil {
		return err
	}
	c := res.Campaign
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fuzz.WriteLog(f, c.Fuzz); err != nil {
		return err
	}
	traced := 0
	for _, finding := range c.Fuzz.Findings {
		if len(finding.Trace) > 0 {
			traced++
		}
	}
	fmt.Printf("campaign on %s: %d unique findings in %s; bug log written to %s\n",
		target, len(c.Fuzz.Findings), c.Fuzz.Elapsed.Round(time.Second), out)
	if flightDepth > 0 {
		fmt.Printf("flight recorder: %d/%d findings carry frame traces (depth %d)\n",
			traced, len(c.Fuzz.Findings), flightDepth)
	}
	return nil
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
