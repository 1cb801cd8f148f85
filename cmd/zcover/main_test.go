package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zcover/internal/telemetry"
)

func TestRunShortCampaign(t *testing.T) {
	if err := run([]string{"-target", "D1", "-strategy", "full", "-duration", "20m"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBetaAndGamma(t *testing.T) {
	for _, strat := range []string{"beta", "gamma"} {
		if err := run([]string{"-target", "D3", "-strategy", strat, "-duration", "5m"}); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run([]string{"-strategy", "sideways"}); err == nil {
		t.Fatal("accepted unknown strategy")
	}
	if err := run([]string{"-target", "D9"}); err == nil {
		t.Fatal("accepted unknown target")
	}
	if err := run([]string{"-resume"}); err == nil {
		t.Fatal("accepted -resume without -checkpoint-dir")
	}
	for _, d := range []string{"0s", "-1h"} {
		if err := run([]string{"-target", "D1", "-duration", d}); err == nil || !strings.Contains(err.Error(), "-duration") {
			t.Errorf("-duration %s: err = %v", d, err)
		}
	}
	// The obs server binds synchronously: a bad address must fail before
	// any campaign work, not print-and-swallow from a goroutine.
	if err := run([]string{"-target", "D1", "-duration", "5m", "-obs-addr", "256.0.0.1:bad"}); err == nil {
		t.Fatal("accepted bad -obs-addr")
	}
}

// TestObservabilityFlags drives -obs-addr through a short campaign: the
// server binds an ephemeral port, the run succeeds, and the server closes.
func TestObservabilityFlags(t *testing.T) {
	if err := run([]string{"-target", "D1", "-duration", "5m", "-obs-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceOutIsTheSimTimeView: -trace-out writes the campaign's three
// phase spans on simulated time, byte-identical across runs.
func TestTraceOutIsTheSimTimeView(t *testing.T) {
	dir := t.TempDir()
	var traces [2][]byte
	for i := range traces {
		path := filepath.Join(dir, fmt.Sprintf("trace%d.jsonl", i))
		capture(t, func() error { return run([]string{"-target", "D1", "-duration", "2m", "-trace-out", path}) })
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = b
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatalf("traces differ:\n%s\n%s", traces[0], traces[1])
	}
	events, err := telemetry.ReadTrace(bytes.NewReader(traces[0]))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range events {
		names = append(names, ev.Name)
		if ev.Kind != "phase" || ev.DurSec <= 0 || ev.Attrs["job"] != "D1/zcover-full" {
			t.Errorf("span %+v, want a positive sim-time span of D1/zcover-full", ev)
		}
	}
	if got := strings.Join(names, ","); got != "scan,discover,fuzz" {
		t.Errorf("spans = %s, want scan,discover,fuzz", got)
	}
}

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) string {
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

// TestCheckpointReplayCLI: a journaled campaign replayed with -resume
// must print the exact same report (modulo the replay note) without
// executing anything, and re-running without -resume must be refused.
func TestCheckpointReplayCLI(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-target", "D1", "-duration", "2m", "-seed", "41", "-checkpoint-dir", dir}
	first := capture(t, func() error { return run(args) })
	if err := run(args); err == nil {
		t.Fatal("existing journal accepted without -resume")
	}
	second := capture(t, func() error { return run(append(args, "-resume")) })
	const note = "Campaign replayed from checkpoint journal — nothing executed.\n\n"
	if !strings.Contains(second, note) {
		t.Fatalf("replay note missing:\n%s", second)
	}
	if got := strings.Replace(second, note, "", 1); got != first {
		t.Errorf("replayed report differs from the original:\n--- first ---\n%s--- replay ---\n%s", first, got)
	}
}

func TestCoverageModeRejectsBadFlagCombos(t *testing.T) {
	bad := [][]string{
		{"-fuzz-mode", "sideways"},
		{"-corpus-dir", "x"},   // needs coverage mode
		{"-coverage-out", "x"}, // needs coverage mode
		{"-fuzz-mode", "coverage", "-checkpoint-dir", "x"},
		{"-fuzz-mode", "coverage", "-strategy", "beta"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("accepted %v", args)
		}
	}
}

// TestCoverageModeCLI drives the coverage-guided engine end to end from
// the CLI: campaign summary + findings table, corpus journal on disk,
// coverage-map JSON out, and a byte-identical -resume replay.
func TestCoverageModeCLI(t *testing.T) {
	dir := t.TempDir()
	covOut := dir + "/cov.json"
	args := []string{"-target", "D1", "-fuzz-mode", "coverage", "-duration", "10m",
		"-seed", "7", "-corpus-dir", dir, "-coverage-out", covOut,
		"-metrics-out", dir + "/metrics.json"}
	published := []string{"radio_tx_frames_total", "fuzz_packets_total", "coverage_inputs_total"}
	before := map[string]int64{}
	for _, name := range published {
		before[name] = telemetry.Default().Counter(name).Load()
	}
	first := capture(t, func() error { return run(args) })
	if !strings.Contains(first, "behavioral-coverage-guided fuzzing") ||
		!strings.Contains(first, "corpus seeds") {
		t.Fatalf("summary missing:\n%s", first)
	}
	if !strings.Contains(first, "Unique vulnerabilities") {
		t.Fatalf("findings table missing:\n%s", first)
	}
	cov1, err := os.ReadFile(covOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(cov1), `"features"`) {
		t.Fatalf("coverage map JSON malformed:\n%s", cov1)
	}
	// The campaign's counts reach the -metrics-out file: the CLI path
	// publishes when the campaign ends.
	raw, err := os.ReadFile(dir + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, name := range published {
		if doc.Counters[name] <= before[name] {
			t.Errorf("-metrics-out %s = %d, want above %d from before the campaign", name, doc.Counters[name], before[name])
		}
	}

	// An existing corpus journal is refused without -resume...
	if err := run(args); err == nil {
		t.Fatal("existing corpus journal accepted without -resume")
	}
	// ...and replays the identical campaign with it.
	second := capture(t, func() error { return run(append(args, "-resume")) })
	if second != first {
		t.Errorf("resumed campaign output differs:\n--- first ---\n%s--- resume ---\n%s", first, second)
	}
	cov2, err := os.ReadFile(covOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(cov1) != string(cov2) {
		t.Error("resumed coverage map differs")
	}
}

// TestBugLogOutGolden: -buglog-out writes the campaign's findings as a
// bug log. The two committed logs are the ones cmd/zreplay's tests
// replay, so this pins what they read to what zcover writes now; a
// change that moves the findings regenerates both with the args below.
func TestBugLogOutGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"bugs-D1-20m-seed1.jsonl", []string{"-target", "D1", "-duration", "20m", "-seed", "1"}},
		{"bugs-D4-15m-seed1.jsonl", []string{"-target", "D4", "-duration", "15m", "-seed", "1"}},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), "bugs.jsonl")
		capture(t, func() error { return run(append(tc.args, "-buglog-out", out)) })
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v -buglog-out differs from testdata/%s:\n%s", tc.args, tc.golden, got)
		}
	}
}

// TestBugLogOutResumed: a campaign replayed from its checkpoint journal
// writes the same bug log, byte for byte, as the run that journaled it;
// so does the coverage-guided engine replayed from its corpus journal.
func TestBugLogOutResumed(t *testing.T) {
	for _, args := range [][]string{
		{"-target", "D1", "-duration", "20m", "-seed", "3", "-flight-recorder", "64", "-checkpoint-dir"},
		{"-target", "D1", "-duration", "5m", "-seed", "7", "-fuzz-mode", "coverage", "-corpus-dir"},
	} {
		dir := t.TempDir()
		args = append(args, dir)
		a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
		capture(t, func() error { return run(append(args, "-buglog-out", a)) })
		capture(t, func() error { return run(append(args, "-resume", "-buglog-out", b)) })
		logA, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		logB, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(logA) == 0 || !bytes.Equal(logA, logB) {
			t.Errorf("%v: resumed bug log differs from the journaled run's (%d vs %d bytes)", args, len(logA), len(logB))
		}
	}
}
