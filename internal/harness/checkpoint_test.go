package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zcover/internal/checkpoint"
	"zcover/internal/fleet"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// ckptJobs is a cheap three-campaign job list with real findings (a D1
// full campaign surfaces its first vulnerability inside two simulated
// minutes), so table AND bug-log determinism are both exercised.
func ckptJobs() []fleet.Job {
	return []fleet.Job{
		{Name: "ckpt/D1/full", Device: "D1", Strategy: fuzz.StrategyFull, Seed: 41, Budget: 2 * time.Minute},
		{Name: "ckpt/D1/vfuzz", Device: "D1", Baseline: true, Seed: 41, Budget: 2 * time.Minute},
		{Name: "ckpt/D2/full", Device: "D2", Strategy: fuzz.StrategyFull, Seed: 42, Budget: 2 * time.Minute},
	}
}

// renderOutcomes flattens outcomes into one deterministic byte string —
// the stand-in for a rendered table plus the bug log.
func renderOutcomes(t *testing.T, outs []FleetOutcome) string {
	t.Helper()
	var sb strings.Builder
	for i, o := range outs {
		raw, err := EncodeOutcome(o)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%d %s\n", i, raw)
		if res := o.Fuzz(); res != nil {
			if err := fuzz.WriteLog(&sb, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sb.String()
}

// runWithBugLog runs the jobs and returns the rendered outcomes plus the
// bug-log bytes the campaign layer emitted through the SetBugLog sink.
func runWithBugLog(t *testing.T, name string, jobs []fleet.Job, cfg fleet.Config) ([]FleetOutcome, string, error) {
	t.Helper()
	var buf bytes.Buffer
	SetBugLog(&buf)
	defer SetBugLog(nil)
	outs, err := runCampaigns(name, jobs, cfg)
	return outs, buf.String(), err
}

// TestCheckpointResumeAtEveryJobBoundary is the tentpole invariant: a
// campaign killed after any number of completed jobs — including with a
// torn half-written journal line — and resumed must produce outcomes,
// tables, and bug log byte-identical to the uninterrupted run.
func TestCheckpointResumeAtEveryJobBoundary(t *testing.T) {
	jobs := ckptJobs()
	wantOuts, wantLog, err := runWithBugLog(t, "ckpt", jobs, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutcomes(t, wantOuts)
	if wantLog == "" {
		t.Fatal("bug log empty — the job list no longer surfaces findings, so this test proves nothing")
	}

	// A complete journal to cut crash prefixes from. Workers=1 so the
	// journal's record order matches job order (any order would resume
	// correctly, but fixed prefixes make the failure mode legible).
	full := t.TempDir()
	if _, _, err := runWithBugLog(t, "ckpt", jobs, fleet.Config{
		Workers: 1, Checkpoint: &fleet.CheckpointSpec{Dir: full},
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(checkpoint.JournalPath(full, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != len(jobs)+1 {
		t.Fatalf("journal has %d lines, want manifest + %d jobs", len(lines), len(jobs))
	}

	for k := 0; k <= len(jobs); k++ {
		prefix := strings.Join(lines[:1+k], "")
		if k%2 == 1 {
			// Simulate a crash mid-append: a torn trailing line must be
			// recovered around, not corrupt the resume.
			prefix += `{"v":1,"type":"job","seq":` + fmt.Sprint(k+1) + `,"bo`
		}
		dir := t.TempDir()
		path := checkpoint.JournalPath(dir, "ckpt")
		if err := os.WriteFile(path, []byte(prefix), 0o644); err != nil {
			t.Fatal(err)
		}
		outs, log, err := runWithBugLog(t, "ckpt", jobs, fleet.Config{
			Workers: 1, Checkpoint: &fleet.CheckpointSpec{Dir: dir, Resume: true},
		})
		if err != nil {
			t.Fatalf("resume after %d jobs: %v", k, err)
		}
		if got := renderOutcomes(t, outs); got != want {
			t.Errorf("resume after %d jobs: outcomes differ from uninterrupted run", k)
		}
		if log != wantLog {
			t.Errorf("resume after %d jobs: bug log differs from uninterrupted run", k)
		}
	}
}

// TestCheckpointRefusesSilentOverwrite: an existing journal without
// -resume is an error, never a silent double-run.
func TestCheckpointRefusesSilentOverwrite(t *testing.T) {
	jobs := []fleet.Job{{Name: "j", Device: "D1", Baseline: true, Seed: 1, Budget: time.Second}}
	dir := t.TempDir()
	spec := &fleet.CheckpointSpec{Dir: dir}
	if _, err := runCampaigns("x", jobs, fleet.Config{Workers: 1, Checkpoint: spec}); err != nil {
		t.Fatal(err)
	}
	_, err := runCampaigns("x", jobs, fleet.Config{Workers: 1, Checkpoint: spec})
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("existing journal accepted without -resume: %v", err)
	}
}

// TestResumeRejectsSpecDrift: a journal from a different job list (a
// changed seed) must be refused, not partially replayed.
func TestResumeRejectsSpecDrift(t *testing.T) {
	jobs := []fleet.Job{{Name: "j", Device: "D1", Baseline: true, Seed: 1, Budget: time.Second}}
	dir := t.TempDir()
	if _, err := runCampaigns("x", jobs, fleet.Config{
		Workers: 1, Checkpoint: &fleet.CheckpointSpec{Dir: dir},
	}); err != nil {
		t.Fatal(err)
	}
	drifted := []fleet.Job{{Name: "j", Device: "D1", Baseline: true, Seed: 2, Budget: time.Second}}
	_, err := runCampaigns("x", drifted, fleet.Config{
		Workers: 1, Checkpoint: &fleet.CheckpointSpec{Dir: dir, Resume: true},
	})
	if err == nil || !strings.Contains(err.Error(), "different job list") {
		t.Fatalf("spec drift accepted: %v", err)
	}
}

// TestResumeReportsUndecodableRecord: a record that passes its CRC but
// cannot decode (codec drift) must fail the resume loudly — the
// "detected and reported, not silently replayed" half of the contract.
func TestResumeReportsUndecodableRecord(t *testing.T) {
	jobs := []fleet.Job{{Name: "j", Device: "D1", Baseline: true, Seed: 1, Budget: time.Second}}
	hash, err := checkpoint.SpecHash(campaignSpec{Campaign: "x", Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, _, err := checkpoint.Open(checkpoint.JournalPath(dir, "x"), checkpoint.Manifest{
		Campaign: "x", SpecHash: hash, TotalJobs: 1,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(checkpoint.JobRecord{
		Index: 0, Label: "j", Attempts: 1, Body: json.RawMessage(`{"campaign":42}`),
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, err = runCampaigns("x", jobs, fleet.Config{
		Workers: 1, Checkpoint: &fleet.CheckpointSpec{Dir: dir, Resume: true},
	})
	if err == nil {
		t.Fatal("undecodable record silently ignored")
	}
}

// TestRunZCoverResumable covers the single-campaign (cmd/zcover) path:
// the replayed campaign is byte-identical, and an existing journal is
// refused without resume.
func TestRunZCoverResumable(t *testing.T) {
	dir := t.TempDir()
	job := fleet.Job{Device: "D1", Strategy: fuzz.StrategyFull, Budget: 2 * time.Minute, Seed: 41}
	newTB := func() *testbed.Testbed {
		tb, err := testbed.New("D1", 41)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	out1, resumed, err := RunZCoverResumable(dir, false, newTB(), job, Options{})
	c1 := out1.Campaign
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("fresh run claimed to be resumed")
	}
	if _, _, err := RunZCoverResumable(dir, false, newTB(), job, Options{}); err == nil {
		t.Fatal("existing journal accepted without resume")
	}
	out2, resumed, err := RunZCoverResumable(dir, true, newTB(), job, Options{})
	c2 := out2.Campaign
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("journaled campaign re-ran instead of replaying")
	}
	raw1, err := EncodeOutcome(FleetOutcome{Campaign: c1})
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := EncodeOutcome(FleetOutcome{Campaign: c2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Error("replayed campaign differs from the original")
	}
	// A drifted key (different seed) must be refused, not replayed.
	drifted := job
	drifted.Seed = 99
	if _, _, err := RunZCoverResumable(dir, true, newTB(), drifted, Options{}); err == nil {
		t.Error("drifted campaign key accepted")
	}
}

// TestRunZCoverResumableRefusesUnkeyedJobs: the single-campaign journal
// is keyed by device, strategy, budget, seed and chaos only, so a job
// that sets anything else is refused before any journal exists, rather
// than journaled under a key that does not describe it.
func TestRunZCoverResumableRefusesUnkeyedJobs(t *testing.T) {
	base := fleet.Job{Device: "D1", Strategy: fuzz.StrategyFull, Budget: 2 * time.Minute, Seed: 41}
	for name, edit := range map[string]func(*fleet.Job){
		"baseline": func(j *fleet.Job) { j.Baseline = true },
		"coverage": func(j *fleet.Job) { j.FuzzMode = fleet.ModeCoverage },
		"patched":  func(j *fleet.Job) { j.Patched = true },
		"frames":   func(j *fleet.Job) { j.Frames = 100 },
	} {
		job := base
		edit(&job)
		tb, err := job.Build()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, _, err := RunZCoverResumable(dir, false, tb, job, Options{}); err == nil {
			t.Errorf("%s job accepted", name)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("%s job left %d files in the checkpoint dir (err %v)", name, len(entries), err)
		}
	}
}

// TestParentJournalsStillResume: journals written before the shard
// fields left the manifest (testdata/parent-journals: a three-job sweep
// and a cmd/zcover single-campaign journal) still resume, execute
// nothing, and render byte-identically to a fresh run.
func TestParentJournalsStillResume(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"journal-ckpt-1of1.jsonl", "journal-zcover-D1-1of1.jsonl"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent-journals", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	jobs := ckptJobs()
	wantOuts, wantLog, err := runWithBugLog(t, "ckpt", jobs, fleet.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resumed := telemetry.Default().Counter("checkpoint_jobs_resumed_total")
	before := resumed.Load()
	outs, log, err := runWithBugLog(t, "ckpt", jobs, fleet.Config{
		Workers: 1, Checkpoint: &fleet.CheckpointSpec{Dir: dir, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := resumed.Load() - before; n != int64(len(jobs)) {
		t.Errorf("resumed %d jobs, want all %d", n, len(jobs))
	}
	if renderOutcomes(t, outs) != renderOutcomes(t, wantOuts) || log != wantLog {
		t.Error("parent journal renders differently from a fresh run")
	}

	job := fleet.Job{Device: "D1", Strategy: fuzz.StrategyFull, Budget: 2 * time.Minute, Seed: 41}
	newTB := func() *testbed.Testbed {
		tb, err := testbed.New("D1", 41)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	out, err := Run(newTB(), job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := out.Campaign
	replayedOut, wasResumed, err := RunZCoverResumable(dir, true, newTB(), job, Options{})
	replayed := replayedOut.Campaign
	if err != nil {
		t.Fatal(err)
	}
	if !wasResumed {
		t.Fatal("parent zcover journal re-ran instead of replaying")
	}
	if renderOutcomes(t, []FleetOutcome{{Campaign: replayed}}) != renderOutcomes(t, []FleetOutcome{{Campaign: fresh}}) {
		t.Error("replayed parent campaign differs from a fresh run")
	}
}
