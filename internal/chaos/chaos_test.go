package chaos

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"zcover/internal/radio"
	"zcover/internal/vtime"
)

// replay transmits n frames tx->rx through an injector and fingerprints
// what the receiver observed (bytes and arrival offsets).
func replay(t *testing.T, p Profile, seed int64, n int) []string {
	t.Helper()
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	tx := m.Attach("tx", radio.RegionEU)
	rx := m.Attach("rx", radio.RegionEU)
	epoch := clock.Now()
	var got []string
	rx.SetReceiver(func(c radio.Capture) {
		got = append(got, fmt.Sprintf("%s %x", c.At.Sub(epoch), c.Raw))
	})
	New(p, seed).Attach(m)
	for i := 0; i < n; i++ {
		if err := tx.Transmit([]byte{0xAB, byte(i), byte(i >> 8), 0x01}); err != nil {
			t.Fatal(err)
		}
		clock.RunUntilIdle()
	}
	return got
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	p, err := ParseProfile("stress")
	if err != nil {
		t.Fatal(err)
	}
	a := replay(t, p, 42, 500)
	b := replay(t, p, 42, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same profile+seed produced different delivery sequences")
	}
	c := replay(t, p, 43, 500)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical delivery sequences")
	}
}

// TestInjectorLinkIndependence: adding traffic on an unrelated link must
// not change an existing link's fault stream.
func TestInjectorLinkIndependence(t *testing.T) {
	p := builtins["lossy"]
	run := func(extra bool) []string {
		clock := vtime.NewSimClock()
		m := radio.NewMedium(clock)
		tx := m.Attach("tx", radio.RegionEU)
		rx := m.Attach("rx", radio.RegionEU)
		var other *radio.Transceiver
		if extra {
			other = m.Attach("other", radio.RegionEU)
			other.SetReceiver(func(radio.Capture) {})
		}
		epoch := clock.Now()
		var got []string
		rx.SetReceiver(func(c radio.Capture) {
			// Record only tx's frames: the extra node's own traffic also
			// reaches rx and is not part of the stream under test.
			if len(c.Raw) > 0 && c.Raw[0] == 1 {
				got = append(got, fmt.Sprintf("%s %x", c.At.Sub(epoch), c.Raw))
			}
		})
		New(p, 7).Attach(m)
		// Advance by a fixed step (rather than RunUntilIdle) so iteration
		// start times are identical with and without the extra traffic;
		// the step comfortably covers airtime + max jitter + duplicates.
		for i := 0; i < 300; i++ {
			if err := tx.Transmit([]byte{1, byte(i), 2}); err != nil {
				t.Fatal(err)
			}
			if extra && i%3 == 0 {
				if err := other.Transmit([]byte{9, byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			clock.Advance(50 * time.Millisecond)
		}
		return got
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("unrelated link traffic shifted the tx->rx fault stream")
	}
}

// TestGilbertElliottBurstiness: with a bursty profile, losses must cluster
// (observed consecutive-loss runs longer than independent loss at the same
// average rate would plausibly produce).
func TestGilbertElliottBurstiness(t *testing.T) {
	p := Profile{GoodLoss: 0, BadLoss: 1, GoodToBad: 0.02, BadToGood: 0.2}
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	tx := m.Attach("tx", radio.RegionEU)
	rx := m.Attach("rx", radio.RegionEU)
	received := make(map[int]bool)
	rx.SetReceiver(func(c radio.Capture) {
		received[int(c.Raw[1])|int(c.Raw[2])<<8] = true
	})
	New(p, 11).Attach(m)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tx.Transmit([]byte{0xCC, byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
		clock.RunUntilIdle()
	}
	lost, maxRun, run := 0, 0, 0
	for i := 0; i < n; i++ {
		if received[i] {
			run = 0
			continue
		}
		lost++
		run++
		if run > maxRun {
			maxRun = run
		}
	}
	if lost == 0 || lost == n {
		t.Fatalf("degenerate loss count %d/%d", lost, n)
	}
	// Mean bad-state dwell is 1/0.2 = 5 frames; runs of >= 3 consecutive
	// losses are practically certain over 2000 frames, and practically
	// impossible at the same rate with independent losses only if the rate
	// were tiny — this asserts the two-state model is actually engaged.
	if maxRun < 3 {
		t.Errorf("max consecutive-loss run %d; burst channel should produce runs >= 3", maxRun)
	}
}

func TestPartitionWindow(t *testing.T) {
	p := Profile{Partitions: []Partition{{Node: "lock", From: time.Hour, For: 10 * time.Minute}}}
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	tx := m.Attach("tx", radio.RegionEU)
	lock := m.Attach("D1-lock", radio.RegionEU)
	var got int
	lock.SetReceiver(func(radio.Capture) { got++ })
	inj := New(p, 1)
	inj.Attach(m)

	send := func() {
		t.Helper()
		if err := tx.Transmit([]byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		clock.RunUntilIdle()
	}
	send()
	if got != 1 {
		t.Fatalf("pre-partition frame not delivered (got=%d)", got)
	}
	clock.Advance(time.Hour + time.Minute) // inside the window
	send()
	if got != 1 {
		t.Fatalf("frame delivered during partition (got=%d)", got)
	}
	if !inj.ImpairedSince(clock.Now().Add(-time.Minute)) {
		t.Error("ImpairedSince false right after a partition drop")
	}
	clock.Advance(10 * time.Minute) // past the window
	send()
	if got != 2 {
		t.Fatalf("post-partition frame not delivered (got=%d)", got)
	}
	if st := inj.Stats(); st.Partitioned != 1 {
		t.Errorf("Partitioned = %d, want 1", st.Partitioned)
	}
}

func TestImpairedSinceBeforeAnyFault(t *testing.T) {
	inj := New(builtins["stress"], 5)
	if inj.ImpairedSince(time.Time{}) {
		t.Fatal("ImpairedSince true with no faults applied")
	}
}

func TestParseProfile(t *testing.T) {
	for _, name := range Profiles() {
		if _, err := ParseProfile(name); err != nil {
			t.Errorf("builtin %q failed to parse: %v", name, err)
		}
	}
	p, err := ParseProfile("burst:badloss=0.7,jittermax=40ms,jitterp=0.2,partition=switch@30m/5m")
	if err != nil {
		t.Fatal(err)
	}
	if p.BadLoss != 0.7 || p.JitterMax != 40*time.Millisecond || p.Jitter != 0.2 {
		t.Errorf("overrides not applied: %+v", p)
	}
	if len(p.Partitions) != 1 || p.Partitions[0].Node != "switch" ||
		p.Partitions[0].From != 30*time.Minute || p.Partitions[0].For != 5*time.Minute {
		t.Errorf("partition override not applied: %+v", p.Partitions)
	}
	if p.GoodToBad != builtins["burst"].GoodToBad {
		t.Errorf("non-overridden field changed: %+v", p)
	}
	// The builtin must not have been mutated by the partition append.
	if len(builtins["burst"].Partitions) != 0 {
		t.Fatal("ParseProfile mutated a builtin profile")
	}
	for _, bad := range []string{
		"unknown", "burst:zzz=1", "burst:badloss=1.5", "burst:badloss",
		"burst:partition=lock", "burst:partition=lock@x/5m", "burst:partition=lock@1h/0s",
		"lossy:corrupt=NaN", "burst:jitterp=0.5", "lossy:jittermax=-5ms",
		"none:partition=lock@-1h/10m",
	} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) unexpectedly succeeded", bad)
		}
	}
}

// FuzzParseProfile: every spec either fails to parse or yields a profile
// the injector can run as written — finite probabilities in [0,1], jitter
// with a positive bound, and partitions that start at or after attach time
// and last a positive while.
func FuzzParseProfile(f *testing.F) {
	for _, seed := range []string{
		"none", "lossy", "stress", "burst:badloss=0.7,jittermax=40ms,jitterp=0.2,partition=switch@30m/5m",
		"lossy:corrupt=NaN", "burst:jitterp=0.5", "lossy:jittermax=-5ms", "none:partition=lock@-1h/10m",
		"jitter:jittermax=0s", "noise:dup=Inf,gtob=-0", "partition:partition=a@0s/1ns,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseProfile(spec)
		if err != nil {
			return
		}
		for _, v := range []float64{p.GoodLoss, p.BadLoss, p.GoodToBad, p.BadToGood, p.Corrupt, p.Duplicate, p.Jitter} {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("ParseProfile(%q) = %+v: probability %v outside [0,1]", spec, p, v)
			}
		}
		if p.JitterMax < 0 || p.Jitter > 0 && p.JitterMax <= 0 {
			t.Fatalf("ParseProfile(%q): jitterp %v with jittermax %s", spec, p.Jitter, p.JitterMax)
		}
		for _, pt := range p.Partitions {
			if pt.From < 0 || pt.For <= 0 {
				t.Fatalf("ParseProfile(%q): partition %+v", spec, pt)
			}
		}
	})
}

func TestProfileEnabled(t *testing.T) {
	if (Profile{}).Enabled() {
		t.Error("zero profile reports Enabled")
	}
	if builtins["none"].Enabled() {
		t.Error("none profile reports Enabled")
	}
	for _, name := range []string{"burst", "noise", "jitter", "partition", "lossy", "stress"} {
		if !builtins[name].Enabled() {
			t.Errorf("builtin %q reports disabled", name)
		}
	}
}

// TestInjectorConcurrentHammer drives one injector from many goroutines
// under -race: concurrent transmissions on distinct links plus Stats and
// ImpairedSince readers.
func TestInjectorConcurrentHammer(t *testing.T) {
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	rx := m.Attach("rx", radio.RegionEU)
	var rmu sync.Mutex
	var frames [][]byte
	rx.SetReceiver(func(c radio.Capture) {
		rmu.Lock()
		frames = append(frames, c.Raw)
		rmu.Unlock()
	})
	inj := New(builtins["stress"], 3)
	inj.Attach(m)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			trx := m.Attach(fmt.Sprintf("w%d", w), radio.RegionEU)
			for i := 0; i < 100; i++ {
				_ = trx.Transmit([]byte{byte(w), byte(i), 0x55, 0xAA})
				inj.Stats()
				inj.ImpairedSince(clock.Now())
			}
			trx.Detach()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			clock.RunUntilIdle()
			if st := inj.Stats(); st.Deliveries == 0 {
				t.Fatal("injector saw no deliveries")
			}
			rmu.Lock()
			defer rmu.Unlock()
			for _, f := range frames {
				if len(f) != 4 {
					t.Fatalf("frame length changed in flight: %x", f)
				}
			}
			return
		default:
			clock.Advance(time.Millisecond)
		}
	}
}

// TestInterceptBytesIndependentOfBuffer: a corrupting injector must copy
// before flipping, never scribbling on the caller's buffer.
func TestInterceptBytesIndependentOfBuffer(t *testing.T) {
	inj := New(Profile{Corrupt: 1}, 9)
	orig := []byte{1, 2, 3, 4}
	in := append([]byte(nil), orig...)
	out := inj.Intercept("a", "b", in)
	if len(out) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(out))
	}
	if !bytes.Equal(in, orig) {
		t.Fatal("injector mutated the input buffer")
	}
	if bytes.Equal(out[0].Raw, orig) {
		t.Fatal("corrupt=1 delivered an unmodified frame")
	}
}
