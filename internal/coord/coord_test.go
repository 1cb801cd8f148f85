package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"zcover/internal/fleet"
)

// testJobs is a tiny job list for protocol tests. The coordinator never
// executes jobs, so the specs just need to be distinct.
func testJobs(n int) []fleet.Job {
	jobs := make([]fleet.Job, n)
	for i := range jobs {
		jobs[i] = fleet.Job{Name: fmt.Sprintf("t/%d", i), Device: "D1", Seed: int64(i), Budget: time.Minute}
	}
	return jobs
}

// fakeClock is the deterministic test time source for Config.now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestCoord builds a coordinator over n jobs with a fake clock and a
// httptest server in front of its handler.
func newTestCoord(t *testing.T, n int, ttl time.Duration) (*Coordinator, *httptest.Server, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	c, err := New(Config{
		Campaign: "prot", Jobs: testJobs(n), SpecHash: "cafe0123",
		Dir: t.TempDir(), LeaseTTL: ttl, now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv, clock
}

// post sends one JSON request and decodes the reply into out (when the
// status is 2xx). It returns the HTTP status and raw body.
func post(t *testing.T, srv *httptest.Server, path string, req, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(body.Bytes(), out); err != nil {
			t.Fatalf("%s: decoding %q: %v", path, body.String(), err)
		}
	}
	return resp.StatusCode, body.String()
}

func leaseAs(t *testing.T, srv *httptest.Server, worker string) LeaseReply {
	t.Helper()
	var reply LeaseReply
	if code, body := post(t, srv, "/lease", LeaseRequest{Worker: worker}, &reply); code != http.StatusOK {
		t.Fatalf("lease: %d %s", code, body)
	}
	return reply
}

func uploadBody(idx int, s string) ResultRequest {
	return ResultRequest{
		Worker: "w", JobIndex: idx, SpecHash: "cafe0123",
		Attempts: 1, Body: json.RawMessage(s),
	}
}

func TestManifestAndLeaseDrain(t *testing.T) {
	c, srv, _ := newTestCoord(t, 3, time.Minute)

	var m ManifestReply
	if code, body := post(t, srv, "/manifest", LeaseRequest{Worker: "w1"}, &m); code != http.StatusOK {
		t.Fatalf("manifest: %d %s", code, body)
	}
	if m.Campaign != "prot" || m.SpecHash != "cafe0123" || m.TotalJobs != 3 || m.LeaseTTL != time.Minute {
		t.Fatalf("manifest = %+v", m)
	}

	// Leases come out in job-index order, each with the full spec.
	for i := 0; i < 3; i++ {
		l := leaseAs(t, srv, "w1")
		if l.Done || l.RetryAfter != 0 || l.JobIndex != i || l.Job == nil || l.SpecHash != m.SpecHash {
			t.Fatalf("lease %d = %+v", i, l)
		}
		if l.Job.Name != fmt.Sprintf("t/%d", i) {
			t.Fatalf("lease %d carries job %q", i, l.Job.Name)
		}
	}
	// Everything leased and nothing done: back off.
	if l := leaseAs(t, srv, "w2"); l.RetryAfter <= 0 {
		t.Fatalf("all-leased reply = %+v", l)
	}

	// Upload all three; the next poll reports done.
	for i := 0; i < 3; i++ {
		var reply ResultReply
		if code, body := post(t, srv, "/result", uploadBody(i, fmt.Sprintf(`{"i":%d}`, i)), &reply); code != http.StatusOK {
			t.Fatalf("result %d: %d %s", i, code, body)
		}
		if reply.Status != "accepted" {
			t.Fatalf("result %d status %q", i, reply.Status)
		}
	}
	if l := leaseAs(t, srv, "w1"); !l.Done {
		t.Fatalf("post-completion lease = %+v", l)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Index != i || string(rec.Body) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
}

// TestLeaseExpiryReissueAndStragglerDedup is the straggler matrix: an
// expired lease is re-issued to another worker, and when the original
// holder finishes anyway its byte-identical upload is deduplicated while
// a conflicting one is refused.
func TestLeaseExpiryReissueAndStragglerDedup(t *testing.T) {
	c, srv, clock := newTestCoord(t, 1, time.Minute)

	l1 := leaseAs(t, srv, "slow")
	if l1.JobIndex != 0 {
		t.Fatalf("lease = %+v", l1)
	}
	// Within TTL the job stays with its holder.
	clock.Advance(59 * time.Second)
	if l := leaseAs(t, srv, "fast"); l.RetryAfter <= 0 {
		t.Fatalf("pre-expiry lease = %+v", l)
	}
	// Past the deadline it is re-issued.
	clock.Advance(2 * time.Second)
	l2 := leaseAs(t, srv, "fast")
	if l2.JobIndex != 0 {
		t.Fatalf("re-issued lease = %+v (original %+v)", l2, l1)
	}
	if st := c.Status(); st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}

	// The new holder completes the job...
	var reply ResultReply
	post(t, srv, "/result", uploadBody(0, `{"v":1}`), &reply)
	if reply.Status != "accepted" {
		t.Fatalf("fresh upload status %q", reply.Status)
	}
	// ...then the straggler lands the identical bytes: deduplicated.
	if code, _ := post(t, srv, "/result", uploadBody(0, `{"v":1}`), &reply); code != http.StatusOK || reply.Status != "duplicate" {
		t.Fatalf("duplicate upload: %d %q", code, reply.Status)
	}
	if st := c.Status(); st.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", st.Duplicates)
	}
	// Conflicting bytes for a done job are corruption, never silently kept.
	if code, body := post(t, srv, "/result", uploadBody(0, `{"v":2}`), nil); code != http.StatusConflict {
		t.Fatalf("conflicting upload: %d %s", code, body)
	}
	if st := c.Status(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestResultValidation(t *testing.T) {
	c, srv, _ := newTestCoord(t, 2, time.Minute)

	// A spec-hash mismatch means the worker ran a different job list:
	// refused, never journaled.
	bad := uploadBody(0, `{"v":1}`)
	bad.SpecHash = "deadbeef"
	if code, body := post(t, srv, "/result", bad, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("spec mismatch: %d %s", code, body)
	}
	// Out-of-range index and empty body are likewise refused.
	if code, _ := post(t, srv, "/result", uploadBody(7, `{"v":1}`), nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad index accepted: %d", code)
	}
	if code, _ := post(t, srv, "/result", uploadBody(0, ``), nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("empty body accepted: %d", code)
	}
	if st := c.Status(); st.Rejected != 3 || st.Done != 0 {
		t.Fatalf("status after rejections = %+v", st)
	}
	// Malformed JSON is a 400.
	resp, err := srv.Client().Post(srv.URL+"/result", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}
}

func TestTerminalJobFailureFailsCampaign(t *testing.T) {
	c, srv, _ := newTestCoord(t, 2, time.Minute)
	req := ResultRequest{Worker: "w1", JobIndex: 1, SpecHash: "cafe0123", Error: "boom after retries"}
	if code, body := post(t, srv, "/result", req, nil); code != http.StatusOK {
		t.Fatalf("error upload: %d %s", code, body)
	}
	// The campaign is failed: Wait surfaces the job error and further
	// lease polls tell workers to exit.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := c.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "boom after retries") {
		t.Fatalf("Wait = %v", err)
	}
	if l := leaseAs(t, srv, "w2"); !l.Done {
		t.Fatalf("lease after failure = %+v", l)
	}
	if _, err := c.Records(); err == nil {
		t.Fatal("Records succeeded on a failed campaign")
	}
	if st := c.Status(); st.Failed == "" {
		t.Fatalf("status.Failed empty: %+v", st)
	}
}

// TestResultsAfterFailureKeepCampaignFailed: uploads that arrive after a
// job failed terminally still journal, and completing every job does not
// close the already-closed finished channel or clear the failure.
func TestResultsAfterFailureKeepCampaignFailed(t *testing.T) {
	c, _, _ := newTestCoord(t, 2, time.Minute)
	if _, err := c.Submit(ResultRequest{Worker: "w1", JobIndex: 0, SpecHash: "cafe0123", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(uploadBody(i, `{"v":1}`)); err != nil {
			t.Fatalf("upload %d after failure: %v", i, err)
		}
	}
	if st := c.Status(); st.Done != 2 || st.Failed == "" {
		t.Fatalf("status = %+v, want 2 done and the failure kept", st)
	}
	if err := c.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Wait = %v, want the job failure", err)
	}
}

// TestResubmittedBodyMatchesAfterRestart: the coordinator keeps a result
// body in the form its journal stores it, so a worker re-sending its
// original non-compact body to a restarted coordinator gets "duplicate",
// and Records returns the same bytes before and after the restart.
func TestResubmittedBodyMatchesAfterRestart(t *testing.T) {
	cfg := Config{Campaign: "prot", Jobs: testJobs(1), SpecHash: "cafe0123", Dir: t.TempDir()}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit(uploadBody(0, `{"a":`)); err == nil {
		t.Fatal("malformed body accepted")
	}
	req := uploadBody(0, `{ "a": "<x>" }`)
	if reply, err := c1.Submit(req); err != nil || reply.Status != "accepted" {
		t.Fatalf("first upload = %+v, %v", reply, err)
	}
	before, err := c1.Records()
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()

	cfg.Resume = true
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if reply, err := c2.Submit(req); err != nil || reply.Status != "duplicate" {
		t.Fatalf("re-upload after restart = %+v, %v; want duplicate", reply, err)
	}
	after, err := c2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || len(after) != 1 || !bytes.Equal(before[0].Body, after[0].Body) {
		t.Errorf("records before restart %+v, after %+v", before, after)
	}
}

// TestCoordinatorRestartRecoversJournal is the coordinator half of the
// crash matrix: a restarted coordinator rebuilds completed jobs from its
// journal and re-leases only the rest.
func TestCoordinatorRestartRecoversJournal(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(3)
	cfg := Config{Campaign: "prot", Jobs: jobs, SpecHash: "cafe0123", Dir: dir}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	leaseAs(t, srv1, "w1") // job 0 leased (in-memory only)
	leaseAs(t, srv1, "w1") // job 1 leased, then completed:
	var reply ResultReply
	post(t, srv1, "/result", uploadBody(1, `{"v":"one"}`), &reply)
	srv1.Close()
	c1.Close()

	// Without Resume the journal is refused, like the CLI rule.
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("New over existing journal = %v", err)
	}
	// A drifted spec hash is refused even with Resume.
	drifted := cfg
	drifted.Resume = true
	drifted.SpecHash = "deadbeef"
	if _, err := New(drifted); err == nil {
		t.Fatal("resumed journal with mismatched spec hash")
	}

	cfg.Resume = true
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	if st := c2.Status(); st.Done != 1 {
		t.Fatalf("recovered done = %d, want 1", st.Done)
	}
	// Old leases died with the process: jobs 0 and 2 are leased afresh,
	// job 1 never is.
	if l := leaseAs(t, srv2, "w2"); l.JobIndex != 0 {
		t.Fatalf("first post-restart lease = %+v", l)
	}
	if l := leaseAs(t, srv2, "w2"); l.JobIndex != 2 {
		t.Fatalf("second post-restart lease = %+v", l)
	}
	post(t, srv2, "/result", uploadBody(0, `{"v":"zero"}`), &reply)
	post(t, srv2, "/result", uploadBody(2, `{"v":"two"}`), &reply)
	recs, err := c2.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{`{"v":"zero"}`, `{"v":"one"}`, `{"v":"two"}`} {
		if string(recs[i].Body) != want {
			t.Fatalf("record %d = %s, want %s", i, recs[i].Body, want)
		}
	}
}

// fakeRunner returns deterministic bytes derived from the job spec, like
// a real (deterministic) campaign would.
func fakeRunner(job fleet.Job) (json.RawMessage, int, error) {
	return json.RawMessage(fmt.Sprintf(`{"ran":%q}`, job.Name)), 1, nil
}

func TestWorkerDrainsCampaign(t *testing.T) {
	c, srv, _ := newTestCoord(t, 3, time.Minute)
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL, ID: "w1", Runner: fakeRunner,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leased != 3 || stats.Ran != 3 || stats.Uploaded != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	recs, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[2].Body) != `{"ran":"t/2"}` {
		t.Fatalf("record 2 = %s", recs[2].Body)
	}
	// A worker joining a finished campaign exits immediately.
	late, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL, ID: "w2", Runner: fakeRunner,
	})
	if err != nil || late.Leased != 0 {
		t.Fatalf("late worker: %+v, %v", late, err)
	}
	st := c.Status()
	if got := st.SortedWorkers(); len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("workers = %v", got)
	}
	if w := st.Workers["w1"]; w.Results != 3 {
		t.Fatalf("w1 footprint = %+v", w)
	}
}

// TestJobOutlivingItsLeaseIsReissued: a job that runs past its lease
// deadline is re-issued to another worker, both uploads land (the second
// deduplicated byte for byte), and the journal matches a single-worker
// run. This is the whole story for long jobs: workers send nothing while
// a job runs.
func TestJobOutlivingItsLeaseIsReissued(t *testing.T) {
	jobs := testJobs(3)
	solo, err := New(Config{Campaign: "prot", Jobs: jobs, SpecHash: "cafe0123", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	soloSrv := httptest.NewServer(solo.Handler())
	defer soloSrv.Close()
	if _, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: soloSrv.URL, ID: "solo", Runner: fakeRunner,
	}); err != nil {
		t.Fatal(err)
	}
	want, err := solo.Records()
	if err != nil {
		t.Fatal(err)
	}

	c, err := New(Config{
		Campaign: "prot", Jobs: jobs, SpecHash: "cafe0123",
		Dir: t.TempDir(), LeaseTTL: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The slow worker holds job 0 until the fast one has run it too,
	// which it can only do once the slow lease has expired.
	holding, rerun := make(chan struct{}), make(chan struct{})
	slowRunner := func(job fleet.Job) (json.RawMessage, int, error) {
		close(holding)
		select {
		case <-rerun:
		case <-time.After(10 * time.Second):
			return nil, 1, fmt.Errorf("job %s was never re-issued", job.Name)
		}
		return fakeRunner(job)
	}
	var once sync.Once
	fastRunner := func(job fleet.Job) (json.RawMessage, int, error) {
		if job.Name == jobs[0].Name {
			once.Do(func() { close(rerun) })
		}
		return fakeRunner(job)
	}
	var slow WorkerStats
	var slowErr error
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		slow, slowErr = RunWorker(context.Background(), WorkerConfig{
			Coordinator: srv.URL, ID: "slow", Runner: slowRunner,
		})
	}()
	<-holding
	fast, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL, ID: "fast", Runner: fastRunner,
	})
	if err != nil {
		t.Fatalf("fast worker: %v", err)
	}
	<-slowDone
	if slowErr != nil {
		t.Fatalf("slow worker: %v", slowErr)
	}

	if slow.Uploaded != 1 || fast.Uploaded != 3 || slow.Duplicates+fast.Duplicates != 1 {
		t.Fatalf("uploads: slow %+v, fast %+v; want 1 + 3 landing, one of them a duplicate", slow, fast)
	}
	if st := c.Status(); st.Expired < 1 || st.Duplicates < 1 {
		t.Fatalf("status = %+v, want an expired lease and a duplicate upload", st)
	}
	got, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records after re-issue differ from a single-worker run:\n got %+v\nwant %+v", got, want)
	}
}

// TestWorkerRetriesTransientErrors: 5xx answers and transport failures
// are retried with backoff; 4xx answers are terminal.
func TestWorkerRetriesTransientErrors(t *testing.T) {
	_, srv, _ := newTestCoord(t, 1, time.Minute)
	fails := 2
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 && r.URL.Path == "/lease" {
			fails--
			http.Error(w, "starting up", http.StatusServiceUnavailable)
			return
		}
		srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer flaky.Close()
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: flaky.URL, ID: "w1", Runner: fakeRunner,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries < 2 || stats.Uploaded != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	terminal := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such campaign", http.StatusNotFound)
	}))
	defer terminal.Close()
	if _, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: terminal.URL, ID: "w1", Runner: fakeRunner,
	}); err == nil {
		t.Fatal("terminal 404 retried forever (or swallowed)")
	}

	// An orphaned worker — coordinator gone for good — exhausts its retry
	// budget and exits with the transport error instead of spinning.
	gone := httptest.NewServer(http.HandlerFunc(nil))
	gone.Close()
	_, err = RunWorker(context.Background(), WorkerConfig{
		Coordinator: gone.URL, ID: "w1", Runner: fakeRunner,
		RetryBudget: 20 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("orphaned worker = %v", err)
	}
}

// TestWorkerRunnerFailureFailsCampaign: a terminal runner error reaches
// the coordinator and fails the whole campaign (all-or-nothing).
func TestWorkerRunnerFailureFailsCampaign(t *testing.T) {
	c, srv, _ := newTestCoord(t, 2, time.Minute)
	broken := func(job fleet.Job) (json.RawMessage, int, error) {
		return nil, 2, fmt.Errorf("testbed exploded")
	}
	if _, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL, ID: "w1", Runner: broken,
	}); err == nil || !strings.Contains(err.Error(), "testbed exploded") {
		t.Fatalf("worker error = %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Wait(ctx); err == nil || !strings.Contains(err.Error(), "testbed exploded") {
		t.Fatalf("Wait = %v", err)
	}
}

// TestSubmitInProcess: a local run drives the coordinator without HTTP —
// Submit carries every /result rule, and Journaled reports what a
// resumed journal already holds.
func TestSubmitInProcess(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Campaign: "prot", Jobs: testJobs(3), SpecHash: "cafe0123", Dir: dir}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Journaled(); len(got) != 0 {
		t.Fatalf("fresh journal holds %v", got)
	}
	bad := uploadBody(1, `{"v":1}`)
	bad.SpecHash = "deadbeef"
	if _, err := c.Submit(bad); err == nil {
		t.Fatal("spec mismatch accepted")
	}
	if reply, err := c.Submit(uploadBody(1, `{"v":1}`)); err != nil || reply.Status != "accepted" {
		t.Fatalf("submit = %+v, %v", reply, err)
	}
	if reply, err := c.Submit(uploadBody(1, `{"v":1}`)); err != nil || reply.Status != "duplicate" {
		t.Fatalf("resubmit = %+v, %v", reply, err)
	}
	c.Close()

	cfg.Resume = true
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := c2.Journaled()
	if len(got) != 1 || got[0].Index != 1 || got[0].Label != "t/1" || string(got[0].Body) != `{"v":1}` {
		t.Fatalf("journaled after restart = %+v", got)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Jobs: testJobs(1), SpecHash: "x", Dir: "d"}); err == nil {
		t.Fatal("accepted empty campaign")
	}
	if _, err := New(Config{Campaign: "c", SpecHash: "x", Dir: "d"}); err == nil {
		t.Fatal("accepted empty job list")
	}
	if _, err := New(Config{Campaign: "c", Jobs: testJobs(1), Dir: "d"}); err == nil {
		t.Fatal("accepted empty spec hash")
	}
	if _, err := New(Config{Campaign: "c", Jobs: testJobs(1), SpecHash: "x"}); err == nil {
		t.Fatal("accepted empty dir")
	}
}
