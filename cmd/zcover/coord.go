package main

// The distributed-sweep subcommands:
//
//	zcover coordinate -campaign table5 -fuzz 2h -addr :8937 -checkpoint-dir ckpt
//	zcover work -coordinator http://host:8937
//
// The coordinator turns a campaign's job list into leased work units,
// journals every uploaded outcome crash-safely, and — once all jobs are
// in — renders the same table and bug log a single-machine run would
// have produced, byte for byte. Workers are stateless lease loops around
// the fleet job executor; any number may join or die mid-sweep.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zcover/internal/coord"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/obs"
	"zcover/internal/telemetry"
)

// lingerMargin covers a parked worker's wake-up and round trip on top of
// the retry-after interval the coordinator keeps serving after completion.
const lingerMargin = 2 * time.Second

// runCoordinate serves one campaign until every job is journaled, then
// renders the table and bug log.
func runCoordinate(args []string) error {
	fs := flag.NewFlagSet("zcover coordinate", flag.ContinueOnError)
	campaign := fs.String("campaign", "table5", "campaign to coordinate: table5 or smoke")
	budget := fs.Duration("fuzz", 0, "fuzzing budget per campaign job (0 = campaign default; table5: 24h)")
	addr := fs.String("addr", "localhost:8937", "address to serve the lease protocol on (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (lets scripts discover an ephemeral port)")
	ckptDir := fs.String("checkpoint-dir", "", "journal uploaded outcomes into this directory (required; the journal is the coordinator's durable state)")
	resume := fs.Bool("resume", false, "recover an existing journal in -checkpoint-dir instead of refusing to overwrite it")
	leaseTTL := fs.Duration("lease-ttl", coord.DefaultLeaseTTL, "lease deadline; a job running longer than this is re-issued and its late upload deduplicated")
	tableOut := fs.String("table-out", "", "also write the rendered table to this file (exactly the table bytes; CI diffs it against the golden)")
	buglogOut := fs.String("buglog-out", "", "write the merged findings to this file as bug-log JSON lines")
	obsAddr := fs.String("obs-addr", "", "serve the observability endpoints plus /coord status on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckptDir == "" {
		return fmt.Errorf("coordinate needs -checkpoint-dir — the journal is what survives a coordinator restart")
	}
	if *budget < 0 {
		return fmt.Errorf("-fuzz must not be negative (0 = campaign default), got %s", *budget)
	}
	jobs, err := harness.CampaignJobs(*campaign, *budget)
	if err != nil {
		return err
	}
	hash, err := harness.CampaignSpecHash(*campaign, jobs)
	if err != nil {
		return err
	}
	co, err := coord.New(coord.Config{
		Campaign: *campaign, Jobs: jobs, SpecHash: hash,
		Dir: *ckptDir, Resume: *resume, LeaseTTL: *leaseTTL,
	})
	if err != nil {
		return err
	}
	defer co.Close()

	// Bind synchronously so a bad address fails before any worker can
	// connect, then publish the resolved address for scripts.
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("coordinate: listen %s: %w", *addr, err)
	}
	srv := &http.Server{Handler: co.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(lis)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(lis.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	if *obsAddr != "" {
		osrv, err := obs.NewServer(*obsAddr, telemetry.Default(), nil,
			obs.Route{Path: "/coord", Handler: co.StatusHandler()})
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			osrv.Close(ctx)
		}()
		fmt.Fprintf(os.Stderr, "coordinate: observability on http://%s\n", osrv.Addr())
	}
	st := co.Status()
	fmt.Printf("Coordinating %s — %d jobs (spec %s, %d already journaled) on http://%s\n",
		*campaign, st.TotalJobs, hash, st.Done, lis.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := co.Wait(ctx); err != nil {
		return err
	}
	recs, err := co.Records()
	if err != nil {
		return err
	}
	outs, err := harness.DecodeRecords(recs, len(jobs))
	if err != nil {
		return err
	}
	if *buglogOut != "" {
		bf, err := os.Create(*buglogOut)
		if err != nil {
			return err
		}
		defer bf.Close()
		harness.SetBugLog(bf)
		defer harness.SetBugLog(nil)
	}
	tbl, err := harness.RenderCampaign(*campaign, outs)
	if err != nil {
		return err
	}
	final := co.Status()
	fmt.Printf("Campaign complete — %d jobs from %d workers (%d leases expired, %d duplicate uploads)\n\n",
		final.Done, len(final.Workers), final.Expired, final.Duplicates)
	fmt.Println(tbl.String())
	if *tableOut != "" {
		if err := os.WriteFile(*tableOut, []byte(tbl.String()), 0o644); err != nil {
			return err
		}
	}
	// Keep answering Done for one retry-after interval: a worker parked on
	// the hint polls again within it and exits cleanly instead of
	// retrying a vanished server.
	select {
	case <-ctx.Done():
	case <-time.After(co.RetryAfter() + lingerMargin):
	}
	return nil
}

// runWork drains leases from a coordinator until its campaign is done.
func runWork(args []string) error {
	fs := flag.NewFlagSet("zcover work", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL, e.g. http://host:8937 (required)")
	id := fs.String("id", "", "worker ID (default hostname-pid)")
	retryBudget := fs.Duration("retry-budget", time.Minute, "give up after the coordinator has been unreachable this long")
	verbose := fs.Bool("v", false, "log every lease and upload to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return fmt.Errorf("work needs -coordinator URL")
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := coord.WorkerConfig{
		Coordinator: *coordinator, ID: *id, RetryBudget: *retryBudget,
		Runner: harness.LeaseRunner(fleet.Config{}),
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	stats, err := coord.RunWorker(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("worker %s done — %d leased, %d ran, %d uploaded (%d duplicates, %d retries)\n",
		*id, stats.Leased, stats.Ran, stats.Uploaded, stats.Duplicates, stats.Retries)
	return nil
}
