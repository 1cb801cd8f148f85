package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zcover/internal/telemetry"
)

// counters reads the "counters" object of a -metrics-out JSON document.
func counters(t *testing.T, raw []byte) map[string]int64 {
	t.Helper()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Counters
}

// TestMetricsOutCountersGolden pins every counter one campaign adds to
// the -metrics-out document, clean and under chaos, to the totals in
// testdata. The frame-cycle counters (transmissions, deliveries, decode
// outcomes, losses, rewrites, retransmissions, findings) are the contract
// the radio and its receivers keep when their internals change. The
// registry is process-wide, so the test compares what the run added. The
// security_keyctx_* counters are left out: they count hits on the
// process-wide AES key cache, which earlier campaigns in the same process
// have already warmed.
func TestMetricsOutCountersGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"counters-D1-2h-seed1.json", []string{"-target", "D1", "-duration", "2h", "-seed", "1"}},
		{"counters-D3-2h-seed2-lossy.json", []string{"-target", "D3", "-duration", "2h", "-seed", "2", "-chaos-profile", "lossy"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var before bytes.Buffer
			if err := telemetry.Default().WriteJSON(&before); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "metrics.json")
			capture(t, func() error { return run(append(tc.args, "-metrics-out", out)) })
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			prev, got := counters(t, before.Bytes()), map[string]int64{}
			for name, v := range counters(t, raw) {
				if d := v - prev[name]; d != 0 && !strings.HasPrefix(name, "security_keyctx_") {
					got[name] = d
				}
			}
			var wantCounts map[string]int64
			if err := json.Unmarshal(want, &wantCounts); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantCounts) {
				js, _ := json.MarshalIndent(got, "", "  ")
				t.Errorf("counters added by %v differ from testdata/%s:\n%s", tc.args, tc.golden, js)
			}
		})
	}
}
