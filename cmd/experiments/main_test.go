package main

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"zcover/internal/coord"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/obs"
	"zcover/internal/telemetry"
)

func TestRunCheapExperiments(t *testing.T) {
	for _, which := range []string{"fig1", "fig5", "table2", "table4", "figs8-11"} {
		if err := run([]string{"-run", which}); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	ferr := f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = orig
	if ferr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", ferr, out)
	}
	return string(out)
}

// TestResumeRendersCoordinatorJournalCLI: a Table V journal written by
// the coordinator and its lease workers, rendered with -resume, prints
// the table and bug log of the plain run and executes nothing.
func TestResumeRendersCoordinatorJournalCLI(t *testing.T) {
	dir := t.TempDir()
	plainLog, resumedLog := filepath.Join(dir, "plain.jsonl"), filepath.Join(dir, "resumed.jsonl")
	want := captureStdout(t, func() error {
		return run([]string{"-run", "table5", "-fuzz", "5m", "-buglog-out", plainLog})
	})

	ckpt := filepath.Join(dir, "coord-ckpt")
	jobs, err := harness.CampaignJobs("table5", 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := harness.CampaignSpecHash("table5", jobs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := coord.New(coord.Config{Campaign: "table5", Jobs: jobs, SpecHash: hash, Dir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	_, err = coord.RunWorker(context.Background(), coord.WorkerConfig{
		Coordinator: srv.URL, ID: "w1", Runner: harness.LeaseRunner(fleet.Config{}),
	})
	srv.Close()
	c.Close()
	if err != nil {
		t.Fatal(err)
	}

	resumed := telemetry.Default().Counter("checkpoint_jobs_resumed_total")
	before := resumed.Load()
	got := captureStdout(t, func() error {
		return run([]string{"-run", "table5", "-fuzz", "5m", "-checkpoint-dir", ckpt, "-resume", "-buglog-out", resumedLog})
	})
	if got != want {
		t.Errorf("journal render differs from the plain run:\n--- plain ---\n%s--- resumed ---\n%s", want, got)
	}
	if n := resumed.Load() - before; n != int64(len(jobs)) {
		t.Errorf("resumed %d jobs from the journal, want all %d", n, len(jobs))
	}
	a, err := os.ReadFile(plainLog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumedLog)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("journal bug log differs from the plain run")
	}
}

func TestCheckpointFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "table4", "-resume"},
		// The retired shard/merge flags and the -pprof alias are gone.
		{"-run", "table4", "-checkpoint-dir", t.TempDir(), "-shard", "1/2"},
		{"-run", "table4", "-checkpoint-dir", t.TempDir(), "-merge"},
		{"-run", "fig1", "-pprof", "127.0.0.1:0"},
		// Budgets must be positive: a non-positive one is not "the default".
		{"-run", "table5", "-fuzz", "-1h"},
		{"-run", "table5", "-fuzz", "0s"},
		{"-run", "table6", "-ablation", "-1h"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

func TestRunCampaignExperimentsShortBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments; run without -short")
	}
	for _, args := range [][]string{
		{"-run", "table6", "-ablation", "30m"},
		{"-run", "fig12", "-fuzz", "30m", "-window", "400s"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "table99"}); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}

// TestScalingCLI checks the sweep's wiring: the workers=1/2 table is
// printed, -scaling-out writes a gateable report, and -scaling-baseline
// gates. The gate runs against fixtures whose workers=2 CPU inflation is
// 100 and 0.5, which any sweep passes and fails, so host load cannot flip
// the result; obs TestCheckRegression covers the 10% arithmetic. An
// old-format baseline is refused before the sweep runs. GOMAXPROCS is 2
// for the test, so the sweep runs on any host.
func TestScalingCLI(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	out := filepath.Join(t.TempDir(), "scaling.json")
	pass := filepath.Join("testdata", "scaling-pass.json")
	printed := captureStdout(t, func() error {
		return run([]string{"-run", "scaling", "-fuzz", "1m",
			"-scaling-baseline", pass, "-scaling-out", out, "-git-sha", "test"})
	})
	for _, want := range []string{"Fleet scaling", "Busy CPU", "CPU inflation",
		"scaling gate: CPU inflation within 10% of baseline " + pass} {
		if !strings.Contains(printed, want) {
			t.Errorf("scaling output missing %q:\n%s", want, printed)
		}
	}
	if rep, err := obs.LoadScalingReport(out); err != nil {
		t.Errorf("-scaling-out report: %v", err)
	} else if _, err := rep.CPUInflation(); err != nil || len(rep.Points) != 2 {
		t.Errorf("-scaling-out report: %v, %+v", err, rep)
	}

	gate := func(baseline string) error {
		var err error
		captureStdout(t, func() error {
			err = run([]string{"-run", "scaling", "-fuzz", "1m", "-scaling-baseline", baseline})
			return nil
		})
		return err
	}
	if err := gate(filepath.Join("testdata", "scaling-fail.json")); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("sweep against an inflation-0.5 baseline: %v, want a regression error", err)
	}
	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, []byte(`{"points": [{"workers": 1, "efficiency": 1}, {"workers": 2, "efficiency": 0.6}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gate(old); err == nil || !strings.Contains(err.Error(), "refresh the baseline") {
		t.Errorf("sweep against an old-format baseline: %v, want a refresh error", err)
	}
}

func TestScalingFlagValidation(t *testing.T) {
	if err := run([]string{"-run", "scaling", "-scaling-baseline", "/no/such/file.json"}); err == nil {
		t.Error("missing -scaling-baseline file accepted")
	}
}

// TestObsAddrFlag: the observability server binds before any experiment
// work, serves the unified endpoints, and a bad address is an immediate
// error instead of a swallowed goroutine print.
func TestObsAddrFlag(t *testing.T) {
	if err := run([]string{"-run", "fig1", "-obs-addr", "256.0.0.1:bad"}); err == nil {
		t.Fatal("bad -obs-addr accepted")
	}
	if err := run([]string{"-run", "fig1", "-obs-addr", "127.0.0.1:0"}); err != nil {
		t.Fatalf("-obs-addr with ephemeral port: %v", err)
	}
}

// runQuiet runs the CLI with stdout discarded and returns its error.
func runQuiet(t *testing.T, args ...string) error {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = null
	defer func() {
		os.Stdout = orig
		null.Close()
	}()
	return run(args)
}

// TestMetricsOutWriteErrorFails: a -metrics-out file that cannot be
// written fails the run instead of being printed and forgotten.
func TestMetricsOutWriteErrorFails(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "m.json")
	if err := runQuiet(t, "-run", "fig1", "-metrics-out", good); err != nil {
		t.Fatalf("-metrics-out %s: %v", good, err)
	}
	if _, err := os.Stat(good); err != nil {
		t.Fatalf("metrics file not written: %v", err)
	}
	bad := filepath.Join(dir, "no-such-dir", "m.json")
	if err := runQuiet(t, "-run", "fig1", "-metrics-out", bad); err == nil {
		t.Fatalf("-metrics-out %s: write error swallowed", bad)
	}
}

// TestTraceOutWriteErrorFails: the fleet writes job spans from its
// workers; a write that fails there must still fail the run.
func TestTraceOutWriteErrorFails(t *testing.T) {
	good := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := runQuiet(t, "-run", "table4", "-trace-out", good); err != nil {
		t.Fatalf("-trace-out %s: %v", good, err)
	}
	if fi, err := os.Stat(good); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := runQuiet(t, "-run", "table4", "-trace-out", "/dev/full"); err == nil {
		t.Fatal("-trace-out /dev/full: write error swallowed")
	}
}
