package vfuzz

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"zcover/internal/protocol"
	"zcover/internal/testbed"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/fuzz"
)

func TestVFuzzRejectsNonPositiveBudget(t *testing.T) {
	// A non-positive budget is an error, not a silent 24 h campaign.
	tb, err := testbed.New("D3", 5)
	if err != nil {
		t.Fatal(err)
	}
	d := dongle.New(tb.Medium, tb.Region)
	for _, budget := range []time.Duration{0, -time.Hour} {
		if _, err := New(d, tb.Home(), testbed.ControllerID, 5, fuzz.Config{Duration: budget}); err == nil {
			t.Errorf("New accepted budget %s", budget)
		}
	}
}

func TestVFuzzTinyBudgetStillSendsOneFrame(t *testing.T) {
	// A budget smaller than a single test cycle runs exactly one test and
	// stops — the loop checks the budget before each send, never mid-cycle.
	tb, err := testbed.New("D3", 5)
	if err != nil {
		t.Fatal(err)
	}
	d := dongle.New(tb.Medium, tb.Region)
	eng := mustNew(t, d, tb.Home(), 5, time.Nanosecond)
	tb.Bus.Subscribe(eng.Observe)
	res := eng.Run()
	if res.PacketsSent != 1 {
		t.Fatalf("packets = %d, want exactly 1", res.PacketsSent)
	}
	if res.Elapsed < time.Nanosecond {
		t.Fatalf("elapsed = %s, want >= budget", res.Elapsed)
	}
}

func TestVFuzzTruncationToZeroLengthPayload(t *testing.T) {
	// The truncate mutation can cut a frame down to its bare MAC header —
	// a zero-length application payload. Those frames must still be well
	// formed enough to transmit (never shorter than the header) and the
	// mutator must actually produce them.
	tb, err := testbed.New("D2", 11)
	if err != nil {
		t.Fatal(err)
	}
	d := dongle.New(tb.Medium, tb.Region)
	eng := mustNew(t, d, tb.Home(), 11, time.Hour)

	headerOnly := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		raw := eng.nextFrame()
		if len(raw) < protocol.HeaderSize {
			t.Fatalf("frame %d is %d bytes, below the %d-byte MAC header",
				i, len(raw), protocol.HeaderSize)
		}
		if len(raw) == protocol.HeaderSize {
			headerOnly++
			// Header-only frames must survive transmission: the dongle and
			// the controller's frame parser see them, and neither may choke.
			_ = d.SendRaw(raw)
		}
	}
	if headerOnly == 0 {
		t.Fatalf("no header-only (zero-payload) frame in %d trials", trials)
	}
}

func TestVFuzzRNGStreamIsDeterministicPerSeed(t *testing.T) {
	// The engine's single RNG feeds both payload generation and MAC-field
	// mutation; the interleaved draw order is part of the contract. Two
	// engines with the same seed must emit identical frame streams.
	frames := func(seed int64) [][]byte {
		tb, err := testbed.New("D1", seed)
		if err != nil {
			t.Fatal(err)
		}
		eng := mustNew(t, dongle.New(tb.Medium, tb.Region), tb.Home(), seed, time.Hour)
		out := make([][]byte, 500)
		for i := range out {
			out[i] = append([]byte{}, eng.nextFrame()...)
		}
		return out
	}
	a, b := frames(7), frames(7)
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatalf("frame %d diverged for identical seeds:\n% X\n% X", i, a[i], b[i])
		}
	}
	c := frames(8)
	same := 0
	for i := range a {
		if string(a[i]) == string(c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 produced identical streams")
	}
}

func TestVFuzzCampaignsAreDeterministicAcrossWorkers(t *testing.T) {
	// Fleet runs schedule VFuzz campaigns on parallel workers. Each worker
	// owns an engine and testbed, so concurrent scheduling must not leak
	// into results: N concurrent campaigns with one seed all match the
	// serial reference byte for byte.
	campaign := func() []byte {
		tb, err := testbed.New("D4", 3)
		if err != nil {
			t.Fatal(err)
		}
		d := dongle.New(tb.Medium, tb.Region)
		eng := mustNew(t, d, tb.Home(), 3, 30*time.Minute)
		tb.Bus.Subscribe(eng.Observe)
		b, err := json.Marshal(eng.Run())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := campaign()

	const workers = 4
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = campaign()
		}(w)
	}
	wg.Wait()
	for w, b := range got {
		if string(b) != string(want) {
			t.Errorf("worker %d diverged from serial run", w)
		}
	}
	var res fuzz.Result
	if err := json.Unmarshal(want, &res); err != nil {
		t.Fatal(err)
	}
	if res.PacketsSent == 0 {
		t.Fatal("reference campaign sent nothing")
	}
}
