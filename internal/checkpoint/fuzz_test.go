package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// reseal recomputes the CRC of every line that decodes as a record
// envelope, so the fuzzer reaches the checks behind the CRC: sequence
// numbers, record types, manifests and job indices.
func reseal(data []byte) []byte {
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		var env envelope
		if json.Unmarshal(line, &env) != nil {
			continue
		}
		body, err := json.Marshal(env.Body)
		if err != nil {
			continue
		}
		env.Body, env.CRC = body, recordCRC(env.Type, env.Seq, body)
		if b, err := json.Marshal(env); err == nil {
			lines[i] = b
		}
	}
	return bytes.Join(lines, []byte("\n"))
}

// sameRecords reports whether two replays hold the same jobs, bodies
// compared in the compact form Append writes.
func sameRecords(a, b map[int]JobRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for idx, ra := range a {
		rb, ok := b[idx]
		if !ok || ra.Index != rb.Index || ra.Label != rb.Label || ra.Attempts != rb.Attempts {
			return false
		}
		ca, errA := json.Marshal(ra.Body)
		cb, errB := json.Marshal(rb.Body)
		if errA != nil || errB != nil || !bytes.Equal(ca, cb) {
			return false
		}
	}
	return true
}

// labels lists a replay's job labels by index, for failure messages.
func labels(recs map[int]JobRecord) map[int]string {
	out := make(map[int]string, len(recs))
	for idx, rec := range recs {
		out[idx] = rec.Label
	}
	return out
}

// FuzzRecover feeds Open(…, resume=true) arbitrary journal bytes, seeded
// with real journals (../harness/testdata/parent-journals), their torn
// tails, a prefix whose last record lacks its newline, and their
// resealed forms. No input may panic, and a journal Open
// accepts must replay to the same records as a clean journal written
// from those records, and must extend cleanly: a record appended after
// the recovery replays with the rest.
func FuzzRecover(f *testing.F) {
	paths, err := filepath.Glob("../harness/testdata/parent-journals/*.jsonl")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed journals: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, false)
		f.Add(b[:bytes.LastIndexByte(b[:len(b)-1], '\n')], false)
		f.Add(b[:len(b)*2/3], false)
		f.Add(b, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = reseal(data)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Load(path)
		if err != nil {
			if j, _, err := Open(path, Manifest{}, true); err == nil {
				j.Close()
				t.Fatal("Open accepted a journal Load rejects")
			}
			return
		}
		want := rep.Manifest
		j, recs, err := Open(path, want, true)
		if err != nil {
			return
		}
		defer j.Close()

		idxs := make([]int, 0, len(recs))
		for idx := range recs {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		cleanPath := filepath.Join(dir, "clean.jsonl")
		clean, _, err := Open(cleanPath, want, false)
		if err != nil {
			t.Fatalf("writing a clean journal: %v", err)
		}
		for _, idx := range idxs {
			if err := clean.Append(recs[idx]); err != nil {
				t.Fatal(err)
			}
		}
		clean.Close()
		reopened, cleanRecs, err := Open(cleanPath, want, true)
		if err != nil {
			t.Fatalf("clean journal of the accepted records does not reopen: %v", err)
		}
		reopened.Close()
		if !sameRecords(recs, cleanRecs) {
			t.Fatalf("accepted records %v replay as %v from a clean journal", labels(recs), labels(cleanRecs))
		}

		free := 0
		for _, taken := recs[free]; taken; _, taken = recs[free] {
			free++
		}
		if want.TotalJobs > 0 && free >= want.TotalJobs {
			return
		}
		extra := JobRecord{Index: free, Label: "extra", Body: json.RawMessage(`{"extra":true}`)}
		if err := j.Append(extra); err != nil {
			t.Fatal(err)
		}
		extended, after, err := Open(path, want, true)
		if err != nil {
			t.Fatalf("recovered journal does not reopen after an append: %v", err)
		}
		extended.Close()
		recs[free] = extra
		if !sameRecords(recs, after) {
			t.Fatalf("after an append the journal replays %v, want %v", labels(after), labels(recs))
		}
	})
}
