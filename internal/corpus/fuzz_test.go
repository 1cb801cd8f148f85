package corpus

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"zcover/internal/checkpoint"
)

// fuzzJournal is the committed seed: the first 26 admissions of a real
// coverage-guided campaign (zcover -target D3 -duration 10m -seed 1
// -fuzz-mode coverage -corpus-dir ...), three of them findings.
const fuzzJournal = "testdata/journal-corpus-covfuzz-D3.jsonl"

// fuzzName and fuzzSpec are the campaign the seed journal was written for,
// spelled as harness spells its corpus key, so OpenJournal accepts it.
const fuzzName = "covfuzz-D3"

var fuzzSpec = struct {
	Device   string        `json:"device"`
	Duration time.Duration `json:"duration"`
	Frames   int           `json:"frames,omitempty"`
	Seed     int64         `json:"seed"`
}{Device: "D3", Duration: 10 * time.Minute, Seed: 1}

// FuzzCorpusReplay feeds OpenJournal's replay arbitrary corpus journals:
// raw file bytes, or (sealed) lines of job records written through the
// checkpoint journal so they pass its CRC and reach the corpus checks. No
// input may panic, and an accepted journal must replay through a Manager
// — its admissions validated, and each replayed seed mutated — without
// one either.
func FuzzCorpusReplay(f *testing.F) {
	raw, err := os.ReadFile(fuzzJournal)
	if err != nil {
		f.Fatal(err)
	}
	rep, err := checkpoint.Load(fuzzJournal)
	if err != nil {
		f.Fatal(err)
	}
	var records []byte
	for _, rec := range rep.Jobs {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		records = append(append(records, line...), '\n')
	}
	dir := f.TempDir()
	if err := os.WriteFile(checkpoint.JournalPath(dir, "corpus-"+fuzzName), raw, 0o644); err != nil {
		f.Fatal(err)
	}
	if j, err := OpenJournal(dir, fuzzName, fuzzSpec, true); err != nil || j.Replayed() != len(rep.Jobs) {
		f.Fatalf("seed journal does not replay: %v", err)
	} else {
		j.Close()
	}
	f.Add(raw, false)
	f.Add(raw[:len(raw)*2/3], false)
	f.Add(records, true)
	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		dir := t.TempDir()
		path := checkpoint.JournalPath(dir, "corpus-"+fuzzName)
		if sealed {
			hash, err := checkpoint.SpecHash(fuzzSpec)
			if err != nil {
				t.Fatal(err)
			}
			w, _, err := checkpoint.Open(path, checkpoint.Manifest{Campaign: "corpus-" + fuzzName, SpecHash: hash}, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range bytes.Split(data, []byte("\n")) {
				var rec checkpoint.JobRecord
				if json.Unmarshal(line, &rec) == nil {
					if err := w.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			w.Close()
		} else if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		j, err := OpenJournal(dir, fuzzName, fuzzSpec, true)
		if err != nil {
			return
		}
		defer j.Close()
		m := newManager(t, 1)
		m.AttachJournal(j)
		for _, rec := range j.replay {
			admitted := rec.Payload
			if rec.Minimized {
				admitted = rec.Original
			}
			s, err := m.Admit(admitted, rec.NewFeatures, rec.Signature, nil)
			if err != nil {
				return
			}
			for k := 0; k < 4; k++ {
				m.Variant(s, k)
			}
		}
	})
}
