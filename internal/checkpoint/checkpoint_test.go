package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testManifest() Manifest {
	return Manifest{
		Campaign: "table6", SpecHash: "0123456789abcdef",
		TotalJobs: 3,
	}
}

func record(i int, payload string) JobRecord {
	return JobRecord{
		Index: i, Label: fmt.Sprintf("job-%d", i), Attempts: 1,
		Body: json.RawMessage(payload),
	}
}

// writeJournal creates a journal with n job records and closes it.
func writeJournal(t *testing.T, path string, n int) {
	t.Helper()
	j, err := create(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(record(i, fmt.Sprintf(`{"value":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 3)

	rep, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TailTruncated {
		t.Errorf("clean journal reported truncated tail: %s", rep.TailError)
	}
	if rep.Manifest.Campaign != "table6" || rep.Manifest.Version != Version {
		t.Errorf("manifest = %+v", rep.Manifest)
	}
	if len(rep.Jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(rep.Jobs))
	}
	byIdx, err := rep.ByIndex()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec, ok := byIdx[i]
		if !ok {
			t.Fatalf("job %d missing from replay", i)
		}
		if want := fmt.Sprintf(`{"value":%d}`, i); string(rec.Body) != want {
			t.Errorf("job %d body = %s, want %s", i, rec.Body, want)
		}
	}
}

func TestCreateRefusesExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 1)
	if _, err := create(path, testManifest()); err == nil {
		t.Fatal("Create silently overwrote an existing journal")
	}
}

// TestRecoverTruncatedTail is the crash-mid-write case: a partial final
// line must be detected, reported, truncated away, and appending must
// continue cleanly afterwards.
func TestRecoverTruncatedTail(t *testing.T) {
	for _, cut := range []string{
		`{"v":1,"type":"job","seq":3,"bo`,                                   // torn JSON
		`{"v":1,"type":"job","seq":3,"body":{"value":99},"crc":"00000000"}`, // bad CRC
	} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		writeJournal(t, path, 2)
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(append([]byte{}, clean...), []byte(cut+"\n")...), 0o644); err != nil {
			t.Fatal(err)
		}

		rep, err := Load(path)
		if err != nil {
			t.Fatalf("tail %q: %v", cut[:20], err)
		}
		if !rep.TailTruncated || rep.TailError == "" {
			t.Fatalf("tail %q: damage not reported: %+v", cut[:20], rep)
		}
		if len(rep.Jobs) != 2 {
			t.Fatalf("tail %q: replayed %d jobs, want 2", cut[:20], len(rep.Jobs))
		}

		j, rep2, err := recoverJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep2.Jobs) != 2 {
			t.Fatalf("recover replayed %d jobs, want 2", len(rep2.Jobs))
		}
		if err := j.Append(record(2, `{"value":2}`)); err != nil {
			t.Fatal(err)
		}
		j.Close()

		// The recovered-and-extended journal must now read back clean.
		rep3, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep3.TailTruncated || len(rep3.Jobs) != 3 {
			t.Fatalf("after recovery: truncated=%v jobs=%d, want clean 3", rep3.TailTruncated, len(rep3.Jobs))
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(got), `"crc":"00000000"`) || strings.Contains(string(got), `"bo`+"\n") {
			t.Error("damaged tail survived recovery")
		}
	}
}

// TestMidJournalCorruptionFails: damage that is not the tail is real
// corruption and must fail loudly, never be replayed around.
func TestMidJournalCorruptionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Flip a byte inside the second record's body.
	lines[1] = strings.Replace(lines[1], `"value":0`, `"value":7`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("mid-journal corruption silently replayed")
	} else if !strings.Contains(err.Error(), "corrupted mid-journal") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, _, err := recoverJournal(path); err == nil {
		t.Fatal("recoverJournal accepted a mid-journal corruption")
	}
}

func TestLoadRejectsEmptyAndHeaderless(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil {
		t.Error("empty journal accepted")
	}
	if _, err := Load(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing journal accepted")
	}
}

func TestByIndexDuplicateHandling(t *testing.T) {
	rep := &Replay{Jobs: []JobRecord{
		record(0, `{"a":1}`), record(0, `{"a":1}`), record(1, `{"b":2}`),
	}}
	byIdx, err := rep.ByIndex()
	if err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if len(byIdx) != 2 {
		t.Errorf("got %d indices, want 2", len(byIdx))
	}
	rep.Jobs = append(rep.Jobs, record(1, `{"b":999}`))
	if _, err := rep.ByIndex(); err == nil {
		t.Error("conflicting duplicate accepted")
	}
}

func TestSpecHashStability(t *testing.T) {
	type spec struct {
		Campaign string
		Seeds    []int64
	}
	a, err := SpecHash(spec{"table5", []int64{41, 42}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpecHash(spec{"table5", []int64{41, 42}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same spec hashed differently: %s vs %s", a, b)
	}
	c, _ := SpecHash(spec{"table5", []int64{41, 43}})
	if a == c {
		t.Error("different specs collided (seed change undetected)")
	}
	if len(a) != 16 {
		t.Errorf("hash %q is not 16 hex digits", a)
	}
}

func TestJournalPath(t *testing.T) {
	dir := t.TempDir()
	if p := JournalPath(dir, "trials/D3"); filepath.Base(p) != "journal-trials_D3-1of1.jsonl" {
		t.Errorf("path = %s", p)
	}
	if p := JournalPath(dir, "table5"); filepath.Dir(p) != dir {
		t.Errorf("journal %s not directly in %s", p, dir)
	}
}

// TestOpen covers the one create-or-recover routine: a fresh path is
// created, an existing journal needs resume, every manifest mismatch is
// named, out-of-range records are refused, and a torn tail is truncated.
func TestOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, recs, err := Open(path, testManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(record(i, fmt.Sprintf(`{"value":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	if _, _, err := Open(path, testManifest(), false); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("existing journal without resume: %v", err)
	}

	for _, c := range []struct {
		name string
		edit func(*Manifest)
		want string
	}{
		{"campaign", func(m *Manifest) { m.Campaign = "table5" }, `campaign "table6", this run "table5"`},
		{"spec hash", func(m *Manifest) { m.SpecHash = "fedcba9876543210" }, "different job list"},
		{"job count", func(m *Manifest) { m.TotalJobs = 4 }, "3 jobs, this run 4"},
	} {
		want := testManifest()
		c.edit(&want)
		if _, _, err := Open(path, want, true); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s mismatch: %v, want it to name %q", c.name, err, c.want)
		}
	}
	want := testManifest()
	want.Campaign, want.TotalJobs = "table5", 4
	if _, _, err := Open(path, want, true); err == nil ||
		!strings.Contains(err.Error(), `this run "table5"`) || !strings.Contains(err.Error(), "this run 4") {
		t.Errorf("two mismatches not both named: %v", err)
	}

	// A torn tail is truncated and the durable records come back.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, `{"v":1,"type":"job","seq":3,"bo`...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err = Open(path, testManifest(), true)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(recs) != 2 || string(recs[1].Body) != `{"value":1}` {
		t.Fatalf("recovered records = %v", recs)
	}
	if after, _ := os.ReadFile(path); string(after) != string(raw) {
		t.Error("torn tail not truncated")
	}
}

// TestOpenRefusalNamesTheRemedy: without resume, an existing journal is
// refused with the advice that would work. Only a journal of this very
// campaign gets "pass -resume"; one written for different seeds or
// budgets (the same name) points at another directory, since -resume
// would be refused too; an unreadable file keeps the plain refusal and
// says why it could not be read.
func TestOpenRefusalNamesTheRemedy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 2)

	_, _, err := Open(path, testManifest(), false)
	if err == nil || !strings.Contains(err.Error(), "pass -resume") {
		t.Errorf("matching journal: %v, want the -resume advice", err)
	}

	other := testManifest()
	other.SpecHash = "fedcba9876543210"
	_, _, err = Open(path, other, false)
	if err == nil || strings.Contains(err.Error(), "-resume") ||
		!strings.Contains(err.Error(), "another campaign") || !strings.Contains(err.Error(), "another checkpoint directory") {
		t.Errorf("journal of another campaign: %v, want it named as such with another directory suggested", err)
	}

	garbled := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(garbled, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(garbled, testManifest(), false)
	if err == nil || !strings.Contains(err.Error(), "pass -resume") || !strings.Contains(err.Error(), "reading it") {
		t.Errorf("unreadable journal: %v, want the plain refusal plus the read error", err)
	}
}

// TestOpenRejectsOutOfRangeIndex: a record whose index the job list
// cannot hold is refused; an open-ended journal (TotalJobs 0) skips the
// check.
func TestOpenRejectsOutOfRangeIndex(t *testing.T) {
	for _, idx := range []int{-1, 3} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		j, err := create(path, testManifest())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(record(idx, `{}`)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if _, _, err := Open(path, testManifest(), true); err == nil || !strings.Contains(err.Error(), "outside [0,3)") {
			t.Errorf("index %d: %v", idx, err)
		}
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	open := Manifest{Campaign: "corpus-x", SpecHash: "0123456789abcdef"}
	j, _, err := Open(path, open, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(record(9, `{}`))
	j.Close()
	j, recs, err := Open(path, open, true)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, ok := recs[9]; !ok {
		t.Error("open-ended journal lost its record")
	}
}

func TestOutOfSequenceRecordFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 1)
	// Splice a valid-CRC record with the wrong seq (a record from another
	// journal cat'ed on): CRC passes, sequence check must catch it.
	body := []byte(`{"index":9,"label":"alien","body":{}}`)
	env := envelope{V: Version, Type: "job", Seq: 7, Body: body, CRC: recordCRC("job", 7, body)}
	line, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append(line, '\n'))
	// A second valid record after it so the splice is not mistaken for a
	// crash tail.
	body2 := []byte(`{"index":2,"label":"tail","body":{}}`)
	env2 := envelope{V: Version, Type: "job", Seq: 8, Body: body2, CRC: recordCRC("job", 8, body2)}
	line2, _ := json.Marshal(env2)
	f.Write(append(line2, '\n'))
	f.Close()

	if _, err := Load(path); err == nil {
		t.Fatal("out-of-sequence splice accepted")
	}
}
