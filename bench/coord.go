package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zcover/internal/coord"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/obs"
)

// coordWorkers is how many in-process lease workers serve a coordinator
// campaign: one per vCPU of the reference host.
const coordWorkers = 2

// coordRoundLimit bounds one coordinator round, far beyond its expected
// few seconds, so a wedged campaign fails the run instead of hanging it.
const coordRoundLimit = 150 * time.Second

// runCoordRound runs one coordinator campaign over jobs: a coordinator
// with an fsync'd journal in a temp dir, served over loopback HTTP, and
// coordWorkers lease workers in this process. The timed region runs from
// the workers' start until Coordinator.Wait has returned and every record
// has been decoded; the idle workers are cancelled after it, so a worker
// sleeping on a retry-after hint does not sit in the measurement.
func runCoordRound(ctx context.Context, e env, jobs []fleet.Job, round int, runner fleet.Runner[harness.FleetOutcome],
	m *meter, tr *tracer) (roundResult, error) {
	name := fmt.Sprintf("coord-r%d", round)
	hash, err := harness.CampaignSpecHash(name, jobs)
	if err != nil {
		return roundResult{}, err
	}
	dir := filepath.Join(e.tmp, name)
	defer os.RemoveAll(dir)
	c, err := coord.New(coord.Config{Campaign: name, Jobs: jobs, SpecHash: hash, Dir: dir})
	if err != nil {
		return roundResult{}, err
	}
	defer c.Close()
	handler := c.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	srv, base, err := serve(handler)
	if err != nil {
		return roundResult{}, err
	}
	defer srv.close()

	ctx, cancelRound := context.WithTimeout(ctx, coordRoundLimit)
	defer cancelRound()
	workCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	// waitCtx ends when every worker has exited, so Wait cannot outlive
	// the workers that would finish the campaign.
	waitCtx, workersGone := context.WithCancel(ctx)
	defer workersGone()

	m.start()
	transports := make([]*http.Transport, coordWorkers)
	werrs := make([]error, coordWorkers)
	var wg sync.WaitGroup
	for w := range transports {
		id := fmt.Sprintf("w%d", w)
		transports[w] = &http.Transport{}
		var rt http.RoundTripper = transports[w]
		cfg := fleet.Config{Workers: 1}
		if tr != nil {
			rt = tr.clientTimer(id, rt)
			cfg.Timeline = obs.NewTimeline()
			tr.addTimeline(cfg.Timeline)
		}
		wcfg := coord.WorkerConfig{
			Coordinator: base, ID: id, Client: &http.Client{Transport: rt},
			Runner: leaseRunner(cfg, runner, tr),
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, werrs[w] = coord.RunWorker(workCtx, wcfg)
		}(w)
	}
	go func() {
		wg.Wait()
		workersGone()
	}()

	outs, retries, err := awaitRecords(waitCtx, c, len(jobs), tr)
	m.stop()
	stopWorkers()
	wg.Wait()
	for _, t := range transports {
		t.CloseIdleConnections()
	}
	if err == nil {
		for _, werr := range werrs {
			if werr != nil && !errors.Is(werr, context.Canceled) {
				err = werr
				break
			}
		}
	}
	if err != nil {
		return roundResult{}, err
	}
	if tr != nil {
		if err := tr.timeRecover(coord.Config{Campaign: name, Jobs: jobs, SpecHash: hash, Dir: dir, Resume: true}); err != nil {
			return roundResult{}, err
		}
	}
	return roundResult{outs: outs, errs: make([]error, len(jobs)), retries: retries}, nil
}

// leaseRunner is harness.LeaseRunner with the fleet runner supplied by
// the benchmark (so campaigns can be timed) and, in traced runs, the
// outcome encoding timed: every leased job runs on a single-job fleet
// and comes back as the serialised outcome the coordinator journals.
func leaseRunner(cfg fleet.Config, runner fleet.Runner[harness.FleetOutcome], tr *tracer) coord.Runner {
	return func(job fleet.Job) (json.RawMessage, int, error) {
		res := fleet.Run([]fleet.Job{job}, runner, cfg)[0]
		if res.Err != nil {
			return nil, res.Attempts, res.Err
		}
		start := time.Now()
		raw, err := harness.EncodeOutcome(res.Value)
		if tr != nil {
			tr.noteEncode(job.Label(), start, time.Now())
		}
		return raw, res.Attempts, err
	}
}

// awaitRecords waits for the campaign and decodes every journaled record.
// It also returns the attempts the jobs needed beyond their first.
func awaitRecords(ctx context.Context, c *coord.Coordinator, total int, tr *tracer) ([]harness.FleetOutcome, int, error) {
	if err := c.Wait(ctx); err != nil {
		return nil, 0, err
	}
	recs, err := c.Records()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	outs, err := harness.DecodeRecords(recs, total)
	if tr != nil {
		tr.noteDecode(start, time.Now(), total)
	}
	retries := 0
	for _, rec := range recs {
		if rec.Attempts > 1 {
			retries += rec.Attempts - 1
		}
	}
	return outs, retries, err
}
