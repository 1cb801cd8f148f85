package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zcover/internal/radio"
	"zcover/internal/vtime"
)

// streamsGolden holds, per built-in profile, every frame each receiver of
// a fixed medium observed (arrival offset and bytes) and the counts the
// injector and the medium kept. It was recorded from the injector that
// answered each delivery with a fresh slice and copied a corrupted frame;
// any rewrite of the intercepted delivery path must reproduce it byte for
// byte.
const streamsGolden = "testdata/streams.golden"

// streamLens are the transmitted frame lengths, cycled: an empty frame
// (no corruption draw), a one-byte frame, and sizes up to 27 bytes.
var streamLens = []int{0, 1, 4, 9, 16, 27}

// renderStreamTranscript drives one medium per built-in profile: "ctrl"
// and "D1-lock" transmit, and two receivers share the name "twin", so
// they share one fault stream per sender. The schedule sends 60 frames
// 50 ms apart, then crosses the stress profile's partition (1h for 5m)
// in 30 s steps and the partition profile's (2h for 10m) in 60 s steps.
func renderStreamTranscript(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, profile := range Profiles() {
		fmt.Fprintf(&b, "== %s\n", profile)
		clock := vtime.NewSimClock()
		m := radio.NewMedium(clock)
		epoch := clock.Now()
		var trx []*radio.Transceiver
		for i, name := range []string{"ctrl", "D1-lock", "twin", "twin"} {
			label := fmt.Sprintf("%s#%d", name, i)
			tr := m.Attach(name, radio.RegionEU)
			tr.SetReceiver(func(c radio.Capture) {
				fmt.Fprintf(&b, "%s %s %x\n", label, c.At.Sub(epoch), c.Raw)
			})
			trx = append(trx, tr)
		}
		inj := New(builtins[profile], 1)
		inj.Attach(m)

		seq := 0
		send := func() {
			t.Helper()
			for s, tr := range trx[:2] {
				if s == 1 && seq%2 == 1 {
					continue // the lock transmits every other step
				}
				raw := make([]byte, streamLens[seq%len(streamLens)])
				for j := range raw {
					raw[j] = byte(s<<7 | (seq*31+j)&0x7F)
				}
				if err := tr.Transmit(raw); err != nil {
					t.Fatal(err)
				}
			}
			seq++
		}
		for i := 0; i < 60; i++ {
			send()
			clock.Advance(50 * time.Millisecond)
		}
		for _, w := range []struct {
			from  time.Duration
			steps int
			step  time.Duration
		}{
			{time.Hour - time.Minute, 16, 30 * time.Second},
			{2*time.Hour - time.Minute, 13, time.Minute},
		} {
			clock.AdvanceTo(epoch.Add(w.from))
			for i := 0; i < w.steps; i++ {
				send()
				clock.Advance(w.step)
			}
		}
		clock.RunUntilIdle()
		fmt.Fprintf(&b, "injector %+v\nmedium %+v\n", inj.Stats(), m.Stats())
	}
	return b.String()
}

// TestFaultStreamsGolden pins every built-in profile's fault stream:
// which deliveries are lost, corrupted (and where), delayed and
// duplicated, per link, at seed 1.
func TestFaultStreamsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(streamsGolden))
	if err != nil {
		t.Fatal(err)
	}
	got := renderStreamTranscript(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", streamsGolden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", streamsGolden, len(gotLines), len(wantLines))
}
