package controller

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// respondersGolden holds, per profile, the reply to every responder at a
// fixed set of parameter shapes, plus the encapsulated and stateful
// exchanges that share the reply path. It was recorded from the
// closure-per-command responder table; any rewrite of the reply path must
// reproduce it byte for byte.
const respondersGolden = "testdata/responders.golden"

// goldenParams are the parameter shapes every responder is driven with:
// empty, the zero and a foreign node ID, a two-byte and a three-byte tail.
var goldenParams = [][]byte{{}, {0x00}, {0x05}, {0xFF, 0x02}, {0x01, 0x02, 0x03}}

// goldenExtras follow the sweep: SUPERVISION_GET wrapping BASIC_GET, and
// ASSOCIATION set/remove/get (group 0 removes from every group).
var goldenExtras = [][]byte{
	{0x6C, 0x01, 0x45, 0x02, 0x20, 0x02},
	{0x85, 0x01, 0x01, 0x03},
	{0x85, 0x01, 0x02, 0x04},
	{0x85, 0x01, 0x02, 0x03},
	{0x85, 0x02, 0x01},
	{0x85, 0x02, 0x02},
	{0x85, 0x04, 0x00, 0x03},
	{0x85, 0x02, 0x01},
	{0x85, 0x02, 0x02},
	{0x85, 0x04, 0x07, 0x04},
	{0x85, 0x02, 0x07},
}

// renderResponderTranscript drives one bug-free controller per profile
// through the responder sweep in a fixed order (nifSeq and the reply
// counter advance identically on every run) and renders each exchange as
// "profile request -> reply; reply..." in hex.
func renderResponderTranscript(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, index := range []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7"} {
		profile, _ := ProfileByIndex(index)
		profile.Bugs, profile.MACBugs = nil, nil
		r := newRigProfile(profile)
		var payloads [][]byte
		for _, sc := range SupportedCommands() {
			for _, p := range goldenParams {
				payloads = append(payloads, append([]byte{byte(sc.Class), byte(sc.Cmd)}, p...))
			}
		}
		payloads = append(payloads, goldenExtras...)
		for _, payload := range payloads {
			before := len(r.replies)
			r.inject(t, payload)
			r.clock.Advance(time.Second)
			fmt.Fprintf(&b, "%s % X ->", index, payload)
			for i, reply := range r.replies[before:] {
				if i > 0 {
					b.WriteString(";")
				}
				fmt.Fprintf(&b, " % X", reply)
			}
			b.WriteString("\n")
		}
		if len(r.events) != 0 {
			t.Fatalf("%s: bug-free profile fired %d anomalies", index, len(r.events))
		}
	}
	return b.String()
}

func TestRespondersGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(respondersGolden))
	if err != nil {
		t.Fatal(err)
	}
	got := renderResponderTranscript(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", respondersGolden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", respondersGolden, len(gotLines), len(wantLines))
}
