// Command zcover runs a complete ZCover campaign — fingerprinting,
// discovery, and position-sensitive fuzzing — against one emulated
// testbed controller and prints the findings.
//
// Usage:
//
//	zcover -target D4 -strategy full -duration 24h -seed 1
//	zcover -target D1 -flight-recorder 16 -buglog-out bugs.jsonl
//
// Targets are the paper's Table II controllers (D1..D7). Strategies are
// full (default), beta (known command classes only), and gamma (random).
// -buglog-out saves the findings as a JSON-lines bug log, with frame
// traces when a flight recorder is attached; zreplay -log replays it as
// single-packet PoCs. It is the one command-line way to run a single
// campaign: -checkpoint-dir journals it, and zcover coordinate/work
// distribute whole sweeps.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"zcover"
	"zcover/internal/obs"
	"zcover/internal/report"
	"zcover/internal/telemetry"
	"zcover/internal/zcover/fuzz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "zcover:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// Subcommands dispatch before flag parsing; a bare invocation is the
	// classic single-campaign CLI.
	if len(args) > 0 {
		switch args[0] {
		case "coordinate":
			return runCoordinate(args[1:])
		case "work":
			return runWork(args[1:])
		}
	}
	fs := flag.NewFlagSet("zcover", flag.ContinueOnError)
	target := fs.String("target", "D1", "testbed controller to attack (D1..D7)")
	strategy := fs.String("strategy", "full", "fuzzing strategy: full, beta, or gamma")
	duration := fs.Duration("duration", time.Hour, "fuzzing budget in simulated time")
	seed := fs.Int64("seed", 1, "deterministic campaign seed")
	verbose := fs.Bool("v", false, "stream findings live as they are discovered")
	metricsOut := fs.String("metrics-out", "", "write final metrics to this file (.json = JSON document, else Prometheus text)")
	traceOut := fs.String("trace-out", "", "write the campaign's phase spans, on simulated time, to this file as JSON lines")
	flightDepth := fs.Int("flight-recorder", 0, "attach a packet flight recorder of this depth; findings carry frame traces (0 = off)")
	chaosProfile := fs.String("chaos-profile", "", "impair the channel with this fault profile, e.g. burst, noise, jitter, lossy:corrupt=0.1 (empty = clean)")
	chaosSeed := fs.Int64("chaos-seed", 1, "deterministic seed for the fault injector's impairment streams")
	obsAddr := fs.String("obs-addr", "", "serve the observability endpoints (/debug/pprof, /metrics, /healthz, /timeline) on this address, e.g. localhost:6060")
	ckptDir := fs.String("checkpoint-dir", "", "journal the campaign outcome into this directory (crash-safe; replay with -resume)")
	resume := fs.Bool("resume", false, "continue an existing journal in -checkpoint-dir or -corpus-dir instead of refusing to overwrite it")
	fuzzMode := fs.String("fuzz-mode", "zcover", "fuzzing engine: zcover (generational Algorithm 1) or coverage (behavioral-coverage-guided)")
	corpusDir := fs.String("corpus-dir", "", "coverage mode: journal every admitted corpus seed into this directory (crash-safe; resumable with -resume)")
	coverageOut := fs.String("coverage-out", "", "coverage mode: write the final coverage-map stats to this file as JSON")
	buglogOut := fs.String("buglog-out", "", "write the campaign's findings to this file as bug-log JSON lines (replay with zreplay -log)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %s", *duration)
	}
	if *resume && *ckptDir == "" && *corpusDir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir or -corpus-dir")
	}
	switch *fuzzMode {
	case "zcover":
		if *corpusDir != "" || *coverageOut != "" {
			return fmt.Errorf("-corpus-dir and -coverage-out need -fuzz-mode coverage")
		}
	case "coverage":
		if *ckptDir != "" {
			return fmt.Errorf("coverage mode persists through -corpus-dir, not -checkpoint-dir")
		}
		if *strategy != "full" {
			return fmt.Errorf("coverage mode always runs the full discovery pipeline; drop -strategy")
		}
	default:
		return fmt.Errorf("unknown fuzz mode %q (want zcover or coverage)", *fuzzMode)
	}
	// The campaign's one lane, served at /timeline and traced by -trace-out.
	timeline := obs.NewTimeline()
	if *obsAddr != "" {
		// Binds synchronously: a bad address fails here, before any
		// campaign work, instead of being printed and swallowed mid-run.
		srv, err := obs.NewServer(*obsAddr, telemetry.Default(), timeline)
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Close(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "zcover: obs server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "zcover: observability on http://%s\n", srv.Addr())
	}

	var strat zcover.Strategy
	switch *strategy {
	case "full":
		strat = zcover.StrategyFull
	case "beta":
		strat = zcover.StrategyKnownOnly
	case "gamma":
		strat = zcover.StrategyRandom
	default:
		return fmt.Errorf("unknown strategy %q (want full, beta, or gamma)", *strategy)
	}

	job := zcover.FleetJob{Device: *target, Strategy: strat, Budget: *duration, Seed: *seed,
		ChaosProfile: *chaosProfile, ChaosSeed: *chaosSeed}
	if *fuzzMode == "coverage" {
		job.FuzzMode = zcover.FuzzModeCoverage
	}
	tb, err := job.Build()
	if err != nil {
		return err
	}
	fmt.Printf("ZCover %s — target %s (%s %s), strategy %s, budget %s\n",
		zcover.Version, *target, tb.Controller.Profile().Brand,
		tb.Controller.Profile().Model, *strategy, *duration)
	if tb.Chaos != nil {
		fmt.Printf("Chaos — profile %s, seed %d\n", tb.Chaos.Profile(), *chaosSeed)
	}
	fmt.Println()

	opts := zcover.Options{FlightRecorderDepth: *flightDepth}
	if *verbose {
		opts.OnFinding = func(f zcover.Finding) {
			fmt.Printf("  [%8s] pkt %-6d %s\n", f.Elapsed.Round(time.Second), f.Packets, f.Signature)
		}
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf, nil)
	}
	var buglog *os.File
	if *buglogOut != "" {
		if buglog, err = os.Create(*buglogOut); err != nil {
			return err
		}
		defer buglog.Close()
	}
	opts.OnPhase = func(phase string) { timeline.Phase(0, job.Label(), phase, tb.Clock.Now()) }
	if job.FuzzMode == zcover.FuzzModeCoverage {
		opts.CorpusDir, opts.ResumeCorpus, opts.Minimize = *corpusDir, *resume, true
		if *corpusDir != "" {
			if err := os.MkdirAll(*corpusDir, 0o755); err != nil {
				return err
			}
		}
	}
	var out zcover.Outcome
	resumed := false
	timeline.StartWorker(0)
	if *ckptDir != "" {
		out, resumed, err = zcover.RunResumable(*ckptDir, *resume, tb, job, opts)
	} else {
		out, err = zcover.Run(tb, job, opts)
	}
	timeline.EndRun(0, tb.Clock.Now(), err)
	timeline.StopWorker(0)
	if terr := tracer.Write(obs.SimSpans(timeline.Snapshot().Intervals)...); err == nil {
		err = terr
	}
	if err != nil {
		return err
	}
	if resumed {
		fmt.Println("Campaign replayed from checkpoint journal — nothing executed.")
		fmt.Println()
	}
	if *metricsOut != "" {
		if err := telemetry.Default().WriteFile(*metricsOut); err != nil {
			return err
		}
	}
	if buglog != nil {
		if err := fuzz.WriteLog(buglog, out.Fuzz()); err != nil {
			return err
		}
		if err := buglog.Close(); err != nil {
			return err
		}
	}
	if res := out.CovFuzz; res != nil {
		if *coverageOut != "" {
			b, err := json.MarshalIndent(res.Coverage, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*coverageOut, append(b, '\n'), 0o644); err != nil {
				return err
			}
		}
		fmt.Println("Phase 3 — behavioral-coverage-guided fuzzing")
		fmt.Printf("  packets sent  %d\n", res.PacketsSent)
		fmt.Printf("  elapsed       %s (simulated)\n", res.Elapsed.Round(time.Second))
		fmt.Printf("  corpus seeds  %d (%d minimised)\n", res.CorpusSize, res.SeedsMinimized)
		fmt.Printf("  map features  %d (density %.5f over %d novel inputs)\n",
			res.Coverage.Features, res.Coverage.Density, res.Coverage.NovelInputs)
		fmt.Printf("  duplicates    %d\n\n", res.Duplicates)
		printFindings(res.Findings)
		return nil
	}

	c := out.Campaign
	fmt.Println("Phase 1 — known properties fingerprinting")
	fmt.Printf("  home ID      %s\n", c.Fingerprint.Home)
	fmt.Printf("  controller   node %s\n", c.Fingerprint.Controller)
	fmt.Printf("  nodes seen   %v\n", c.Fingerprint.Nodes)
	fmt.Printf("  listed       %d command classes\n\n", len(c.Fingerprint.Listed))

	if strat == zcover.StrategyFull {
		fmt.Println("Phase 2 — unknown properties discovery")
		fmt.Printf("  unlisted spec candidates  %d\n", len(c.Discovery.UnlistedSpec))
		fmt.Printf("  proprietary confirmed     %d\n", len(c.Discovery.HiddenConfirmed))
		fmt.Printf("  unknown CMDCLs            %d\n", c.Discovery.UnknownCount())
		fmt.Printf("  validated commands        %d\n", len(c.Discovery.ConfirmedCommands))
		fmt.Printf("  prioritized queue         %d classes\n\n", len(c.Discovery.Prioritized))
	}

	fmt.Println("Phase 3 — position-sensitive fuzzing")
	fmt.Printf("  packets sent  %d\n", c.Fuzz.PacketsSent)
	fmt.Printf("  elapsed       %s (simulated)\n", c.Fuzz.Elapsed.Round(time.Second))
	fmt.Printf("  duplicates    %d\n", c.Fuzz.Duplicates)
	// A replayed campaign never touched the injector, so its live stats
	// would read zero; the journaled findings still carry their grades.
	if tb.Chaos != nil && !resumed {
		s := tb.Chaos.Stats()
		fmt.Printf("  chaos faults  %d of %d deliveries (%d dropped, %d corrupted, %d duplicated, %d delayed, %d partitioned)\n",
			s.Faults(), s.Deliveries, s.Dropped, s.Corrupted, s.Duplicated, s.Delayed, s.Partitioned)
	}
	fmt.Println()

	printFindings(c.Fuzz.Findings)
	return nil
}

// printFindings renders the unique-vulnerability table shared by both
// fuzzing modes.
func printFindings(findings []zcover.Finding) {
	tbl := &report.Table{
		Title:   fmt.Sprintf("Unique vulnerabilities (%d)", len(findings)),
		Headers: []string{"#", "Elapsed", "Packet", "Signature", "Outage", "Paper bug", "Trigger payload"},
	}
	for i, f := range findings {
		ref := "-"
		if bug, ok := findBug(f.Signature); ok {
			ref = fmt.Sprintf("Bug %02d (%s)", bug.ID, bug.Confirmed)
		}
		outage := "-"
		if f.MeasuredOutage > 0 {
			outage = f.MeasuredOutage.Round(time.Second).String()
		}
		sig := f.Signature
		if f.Event.Confidence == zcover.ConfidenceSuspect {
			sig += " (suspect)"
		}
		tbl.AddRow(fmt.Sprintf("%d", i+1), f.Elapsed.Round(time.Second).String(),
			fmt.Sprintf("%d", f.Packets), sig, outage, ref,
			fmt.Sprintf("% X", f.TriggerPayload))
	}
	fmt.Print(tbl.String())
}

// findBug resolves a signature against the paper catalogue.
func findBug(sig string) (zcover.PaperBug, bool) {
	for _, b := range zcover.PaperBugs() {
		if b.Signature == sig {
			return b, true
		}
	}
	return zcover.PaperBug{}, false
}
