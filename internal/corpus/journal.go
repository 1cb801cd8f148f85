package corpus

import (
	"encoding/json"
	"fmt"

	"zcover/internal/checkpoint"
)

// Corpus persistence rides the crash-safe journal format of
// internal/checkpoint: one CRC-framed JSONL record per admitted seed,
// fsynced at append time, with the campaign identity pinned in the
// manifest. A killed coverage campaign therefore keeps every seed it
// admitted; on resume the deterministic engine regenerates the same
// admissions, which the Manager validates against this journal record by
// record before appending anything new (see Manager.Admit).

// Journal is one campaign's durable corpus.
type Journal struct {
	j      *checkpoint.Journal
	replay []*Seed
}

// OpenJournal opens (or creates) the corpus journal for a campaign under
// dir. name labels the campaign ("covfuzz-D1"); spec is the complete
// campaign key — any drift in it refuses an existing journal, exactly like
// campaign checkpoints. An existing journal is refused unless resume is
// set; with resume, its seeds become the Manager's replay prefix.
func OpenJournal(dir, name string, spec any, resume bool) (*Journal, error) {
	hash, err := checkpoint.SpecHash(spec)
	if err != nil {
		return nil, err
	}
	campaign := "corpus-" + name
	path := checkpoint.JournalPath(dir, campaign)
	j, recs, err := checkpoint.Open(path, checkpoint.Manifest{Campaign: campaign, SpecHash: hash}, resume)
	if err != nil {
		return nil, err
	}
	replay := make([]*Seed, len(recs))
	for idx, rec := range recs {
		if idx < 0 || idx >= len(recs) {
			j.Close()
			return nil, fmt.Errorf("corpus: %s has non-dense seed index %d over %d records", path, idx, len(recs))
		}
		var s Seed
		if err := json.Unmarshal(rec.Body, &s); err != nil {
			j.Close()
			return nil, fmt.Errorf("corpus: %s seed %d: %w", path, idx, err)
		}
		replay[idx] = &s
	}
	return &Journal{j: j, replay: replay}, nil
}

// Replayed reports how many seeds the journal already held when opened.
func (j *Journal) Replayed() int { return len(j.replay) }

// Path reports the journal file location.
func (j *Journal) Path() string { return j.j.Path() }

// Close releases the journal file.
func (j *Journal) Close() error { return j.j.Close() }

// append journals one freshly admitted seed.
func (j *Journal) append(s *Seed) error {
	body, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("corpus: encoding seed %d: %w", s.ID, err)
	}
	label := fmt.Sprintf("seed-%d", s.ID)
	if len(s.Payload) >= 2 {
		label = fmt.Sprintf("seed-%d/0x%02X-0x%02X", s.ID, s.Payload[0], s.Payload[1])
	}
	return j.j.Append(checkpoint.JobRecord{Index: s.ID, Label: label, Body: body})
}
