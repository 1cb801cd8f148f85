package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zcover/internal/telemetry"
)

// The bug logs replayed below are what zcover -buglog-out writes; the
// zcover tests pin them (TestBugLogOutGolden).
const (
	bugLogD1 = "../zcover/testdata/bugs-D1-20m-seed1.jsonl" // -target D1 -duration 20m -seed 1
	bugLogD4 = "../zcover/testdata/bugs-D4-15m-seed1.jsonl" // -target D4 -duration 15m -seed 1
)

func TestBugLogThenReplay(t *testing.T) {
	if _, err := os.Stat(bugLogD1); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-log", bugLogD1}); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogReplay(t *testing.T) {
	if err := run([]string{"-catalog"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRequiresAMode(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("accepted no mode")
	}
	if err := run([]string{"-log", "/nonexistent/x.jsonl"}); err == nil {
		t.Fatal("accepted missing log file")
	}
}

func TestBugLogMinimizeReplay(t *testing.T) {
	if err := run([]string{"-log", bugLogD4, "-minimize"}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceSummaryLabelsClocks: -trace prints each span with the clock
// its duration is on — wall for a fleet job, sim for a pipeline phase.
func TestTraceSummaryLabelsClocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	err = telemetry.NewTracer(f, nil).Write(
		telemetry.TraceEvent{Name: "D1/vfuzz", Kind: "job", Start: start, End: start.Add(time.Second),
			Attrs: map[string]string{"outcome": "failed"}},
		telemetry.TraceEvent{Name: "scan", Kind: "phase", Start: start, End: start.Add(2 * time.Minute),
			Attrs: map[string]string{"job": "D1/vfuzz", "error": "no traffic"}},
	)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := run([]string{"-trace", path})
	os.Stdout = orig
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil || runErr != nil {
		t.Fatalf("run: %v, read: %v", runErr, err)
	}
	lines := strings.Split(string(out), "\n")
	if !strings.Contains(lines[0], "1.000s wall outcome=failed") {
		t.Errorf("job line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "120.000s sim  job=D1/vfuzz error=no traffic") {
		t.Errorf("phase line = %q", lines[1])
	}
}
