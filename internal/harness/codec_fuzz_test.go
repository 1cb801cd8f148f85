package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeOutcome feeds the journal outcome codec arbitrary bytes. The
// committed corpus (testdata/fuzz/FuzzDecodeOutcome) holds one real
// encoded outcome per kind: campaign, baseline, and covfuzz. No input
// may panic, and any accepted input must reach a fixed point after one
// re-encode: DecodeOutcome(EncodeOutcome(DecodeOutcome(x))) encodes to
// the same bytes as EncodeOutcome(DecodeOutcome(x)).
func FuzzDecodeOutcome(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"baseline":{},"campaign":{"fuzz":{}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecodeOutcome(json.RawMessage(data))
		if err != nil {
			return
		}
		once, err := EncodeOutcome(out)
		if err != nil {
			t.Fatalf("accepted outcome does not re-encode: %v", err)
		}
		again, err := DecodeOutcome(once)
		if err != nil {
			t.Fatalf("re-encoded outcome does not decode: %v\n%s", err, once)
		}
		twice, err := EncodeOutcome(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("no fixed point:\n%s\n%s", once, twice)
		}
	})
}
