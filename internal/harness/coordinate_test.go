package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zcover/internal/coord"
	"zcover/internal/fleet"
	"zcover/internal/telemetry"
)

// smokeBaseline runs the smoke campaign on the classic single-machine
// path and returns its rendered table and bug-log bytes — the golden the
// distributed path must reproduce exactly.
func smokeBaseline(t *testing.T) (string, string) {
	t.Helper()
	outs, log, err := runWithBugLog(t, "smoke", smokeJobs(0), fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if log == "" {
		t.Fatal("bug log empty — the smoke job list no longer surfaces findings, so determinism over it proves nothing")
	}
	return renderSmoke(outs).String(), log
}

// newSmokeCoordinator builds a coordinator over the smoke campaign with
// an HTTP server in front of it.
func newSmokeCoordinator(t *testing.T, dir string, resume bool, ttl time.Duration) (*coord.Coordinator, *httptest.Server) {
	t.Helper()
	jobs := smokeJobs(0)
	hash, err := CampaignSpecHash("smoke", jobs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := coord.New(coord.Config{
		Campaign: "smoke", Jobs: jobs, SpecHash: hash,
		Dir: dir, Resume: resume, LeaseTTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	return c, srv
}

// renderCoordinated waits for the campaign, decodes the coordinator's
// journal records, and renders table + bug log the way `zcover
// coordinate` does.
func renderCoordinated(t *testing.T, c *coord.Coordinator) (string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	outs, err := DecodeRecords(recs, len(smokeJobs(0)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	SetBugLog(&buf)
	defer SetBugLog(nil)
	tbl, err := RenderCampaign("smoke", outs)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.String(), buf.String()
}

// TestCoordinatedCampaignMatchesSingleMachine is the tentpole invariant:
// a coordinator with N workers must render the exact table and bug-log
// bytes the single-machine run produces, for N = 1 and N = 3.
func TestCoordinatedCampaignMatchesSingleMachine(t *testing.T) {
	wantTable, wantLog := smokeBaseline(t)
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, srv := newSmokeCoordinator(t, t.TempDir(), false, 0)
			defer c.Close()
			defer srv.Close()
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = coord.RunWorker(context.Background(), coord.WorkerConfig{
						Coordinator: srv.URL, ID: fmt.Sprintf("w%d", i),
						Runner: LeaseRunner(fleet.Config{}),
					})
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			gotTable, gotLog := renderCoordinated(t, c)
			if gotTable != wantTable {
				t.Errorf("table differs from single-machine run:\n--- want ---\n%s--- got ---\n%s", wantTable, gotTable)
			}
			if gotLog != wantLog {
				t.Errorf("bug log differs from single-machine run:\n--- want ---\n%s--- got ---\n%s", wantLog, gotLog)
			}
		})
	}
}

// TestCoordinatedCampaignSurvivesWorkerKill: a worker killed mid-job
// abandons its lease; after the deadline the job is re-issued to a
// healthy worker and the final bytes are still identical.
func TestCoordinatedCampaignSurvivesWorkerKill(t *testing.T) {
	wantTable, wantLog := smokeBaseline(t)
	c, srv := newSmokeCoordinator(t, t.TempDir(), false, 100*time.Millisecond)
	defer c.Close()
	defer srv.Close()

	// The doomed worker dies (its context is cancelled) the instant its
	// first job starts — lease granted, no result ever uploaded.
	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	doomed := func(job fleet.Job) (json.RawMessage, int, error) {
		kill()
		return nil, 0, killCtx.Err()
	}
	if _, err := coord.RunWorker(killCtx, coord.WorkerConfig{
		Coordinator: srv.URL, ID: "doomed", Runner: doomed,
	}); err != context.Canceled {
		t.Fatalf("killed worker returned %v, want context.Canceled", err)
	}

	// A healthy worker picks up the remaining jobs, waits out the dead
	// lease, and finishes the re-issued job too.
	if _, err := coord.RunWorker(context.Background(), coord.WorkerConfig{
		Coordinator: srv.URL, ID: "healthy", Runner: LeaseRunner(fleet.Config{}),
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Expired == 0 {
		t.Error("no lease expired — the kill scenario did not actually exercise re-issue")
	}
	gotTable, gotLog := renderCoordinated(t, c)
	if gotTable != wantTable {
		t.Errorf("table differs after worker kill:\n--- want ---\n%s--- got ---\n%s", wantTable, gotTable)
	}
	if gotLog != wantLog {
		t.Errorf("bug log differs after worker kill:\n--- want ---\n%s--- got ---\n%s", wantLog, gotLog)
	}
}

// TestCoordinatedCampaignSurvivesCoordinatorRestart: results journaled
// before a coordinator crash survive into the resumed coordinator, the
// open jobs are re-leased, and the merged bytes are identical.
func TestCoordinatedCampaignSurvivesCoordinatorRestart(t *testing.T) {
	wantTable, wantLog := smokeBaseline(t)
	dir := t.TempDir()
	jobs := smokeJobs(0)
	hash, err := CampaignSpecHash("smoke", jobs)
	if err != nil {
		t.Fatal(err)
	}

	// First life: exactly one job completes before the "crash" (the
	// result is computed by the real runner and uploaded directly).
	c1, srv1 := newSmokeCoordinator(t, dir, false, 0)
	raw, attempts, err := LeaseRunner(fleet.Config{})(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(coord.ResultRequest{
		Worker: "w0", JobIndex: 0, SpecHash: hash, Attempts: attempts, Body: raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv1.URL+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload before crash: %d", resp.StatusCode)
	}
	srv1.Close()
	c1.Close()

	// Second life: the journal restores job 0, a worker finishes the rest.
	c2, srv2 := newSmokeCoordinator(t, dir, true, 0)
	defer c2.Close()
	defer srv2.Close()
	if st := c2.Status(); st.Done != 1 {
		t.Fatalf("recovered done = %d, want 1", st.Done)
	}
	stats, err := coord.RunWorker(context.Background(), coord.WorkerConfig{
		Coordinator: srv2.URL, ID: "w1", Runner: LeaseRunner(fleet.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ran != len(jobs)-1 {
		t.Fatalf("post-restart worker ran %d jobs, want %d", stats.Ran, len(jobs)-1)
	}
	gotTable, gotLog := renderCoordinated(t, c2)
	if gotTable != wantTable {
		t.Errorf("table differs after coordinator restart:\n--- want ---\n%s--- got ---\n%s", wantTable, gotTable)
	}
	if gotLog != wantLog {
		t.Errorf("bug log differs after coordinator restart:\n--- want ---\n%s--- got ---\n%s", wantLog, gotLog)
	}
}

// TestCoordinatorJournalResumesThroughRunCampaigns: a campaign finished
// by a coordinator and its workers, resumed through the local
// checkpointed path, renders the single-machine table and bug log and
// executes zero jobs — every one is served from the journal.
func TestCoordinatorJournalResumesThroughRunCampaigns(t *testing.T) {
	wantTable, wantLog := smokeBaseline(t)
	dir := t.TempDir()
	c, srv := newSmokeCoordinator(t, dir, false, 0)
	_, err := coord.RunWorker(context.Background(), coord.WorkerConfig{
		Coordinator: srv.URL, ID: "w1", Runner: LeaseRunner(fleet.Config{}),
	})
	srv.Close()
	c.Close()
	if err != nil {
		t.Fatal(err)
	}

	resumed := telemetry.Default().Counter("checkpoint_jobs_resumed_total")
	before := resumed.Load()
	jobs := smokeJobs(0)
	outs, log, err := runWithBugLog(t, "smoke", jobs, fleet.Config{
		Workers: 1, Checkpoint: &fleet.CheckpointSpec{Dir: dir, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := resumed.Load() - before; n != int64(len(jobs)) {
		t.Errorf("resumed %d jobs from the journal, want all %d", n, len(jobs))
	}
	if got := renderSmoke(outs).String(); got != wantTable {
		t.Errorf("table differs from single-machine run:\n--- want ---\n%s--- got ---\n%s", wantTable, got)
	}
	if log != wantLog {
		t.Errorf("bug log differs from single-machine run:\n--- want ---\n%s--- got ---\n%s", wantLog, log)
	}
}

func TestCampaignJobsAndDecodeValidation(t *testing.T) {
	if _, err := CampaignJobs("sideways", 0); err == nil {
		t.Fatal("accepted unknown campaign")
	}
	jobs, err := CampaignJobs("table5", 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*len(table5Devices) {
		t.Fatalf("table5 job count = %d", len(jobs))
	}
	for _, job := range jobs {
		if job.Budget != 2*time.Hour {
			t.Fatalf("job %s budget = %s", job.Name, job.Budget)
		}
	}
	if _, err := DecodeRecords(nil, 3); err == nil || !strings.Contains(err.Error(), "0 records for 3 jobs") {
		t.Fatalf("short record set: %v", err)
	}
	if _, err := RenderCampaign("sideways", nil); err == nil {
		t.Fatal("rendered unknown campaign")
	}
}
