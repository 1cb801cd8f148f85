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

// stampedFixture copies a scaling fixture into a temporary file stamped
// with this process's GOMAXPROCS plus skew: the gate only compares reports
// from one host shape, and the fixtures must gate the same on any host.
func stampedFixture(t *testing.T, name string, skew int) string {
	t.Helper()
	rep, err := obs.LoadScalingReport(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	rep.Host.Gomaxprocs = runtime.GOMAXPROCS(0) + skew
	path := filepath.Join(t.TempDir(), name)
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScalingCLI checks the sweep's wiring: the table and ranking are
// printed, -scaling-out writes a readable report, and -scaling-baseline
// gates. The gate runs against fixtures whose top point has efficiency
// 0.01 and 100, which any sweep passes and fails, so host load cannot
// flip the result; obs TestCheckRegression covers the 10% arithmetic. A
// fixture from another host shape is refused outright.
func TestScalingCLI(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scaling.json")
	pass := stampedFixture(t, "scaling-pass.json", 0)
	printed := captureStdout(t, func() error {
		return run([]string{"-run", "scaling", "-fuzz", "30m", "-scaling-workers", "1,2",
			"-scaling-baseline", pass, "-scaling-out", out, "-git-sha", "test"})
	})
	for _, want := range []string{"Fleet scaling", "Ranked serialization sources",
		"scaling gate: efficiency within 10% of baseline " + pass} {
		if !strings.Contains(printed, want) {
			t.Errorf("scaling output missing %q:\n%s", want, printed)
		}
	}
	if rep, err := obs.LoadScalingReport(out); err != nil || len(rep.Points) != 2 {
		t.Errorf("-scaling-out report: %v, %+v", err, rep)
	}

	gate := func(baseline string) error {
		var err error
		captureStdout(t, func() error {
			err = run([]string{"-run", "scaling", "-fuzz", "30m", "-scaling-workers", "1,2",
				"-scaling-baseline", baseline})
			return nil
		})
		return err
	}
	if err := gate(stampedFixture(t, "scaling-fail.json", 0)); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("sweep against an efficiency-100 baseline: %v, want a regression error", err)
	}
	if err := gate(stampedFixture(t, "scaling-pass.json", 1)); err == nil || !strings.Contains(err.Error(), "refresh the baseline") {
		t.Errorf("sweep against another host shape's baseline: %v, want a host-shape error", err)
	}
}

func TestScalingFlagValidation(t *testing.T) {
	if err := run([]string{"-run", "scaling", "-scaling-workers", "1,zero"}); err == nil {
		t.Error("bad -scaling-workers accepted")
	}
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
