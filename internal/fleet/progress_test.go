package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// TestSimRateEdgeCases pins the division guards: zero or negative wall
// time must not produce Inf/NaN.
func TestSimRateEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		p    Progress
		want float64
	}{
		{"zero wall", Progress{SimTime: time.Hour}, 0},
		{"negative wall", Progress{SimTime: time.Hour, Wall: -time.Second}, 0},
		{"zero sim", Progress{Wall: time.Second}, 0},
		{"normal", Progress{SimTime: 10 * time.Second, Wall: 2 * time.Second}, 5},
	}
	for _, tc := range cases {
		if got := tc.p.SimRate(); got != tc.want {
			t.Errorf("%s: SimRate = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestProgressStringEdgeCases renders the ticker line for degenerate
// snapshots: the zero value (zero total, zero wall) must stay finite and
// well-formed.
func TestProgressStringEdgeCases(t *testing.T) {
	zero := Progress{}
	s := zero.String()
	if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("zero Progress renders %q", s)
	}
	if !strings.Contains(s, "0/0 done") || !strings.Contains(s, "(0.0x)") {
		t.Errorf("zero Progress renders %q", s)
	}
	if !zero.Finished() {
		t.Error("zero-total Progress should report Finished (vacuously drained)")
	}

	busy := Progress{Total: 4, Done: 1, Running: 2, Queued: 1,
		Findings: 3, Packets: 99, SimTime: time.Minute, Wall: time.Second}
	s = busy.String()
	for _, want := range []string{"1/4 done", "2 running", "1 queued", "3 findings", "99 pkts", "(60.0x)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Progress renders %q, missing %q", s, want)
		}
	}
}

// TestProgressConsistentUnderConcurrency drives the shared counts from
// several workers at once: every snapshot must account for every job,
// Done and Failed must never go back, and the last snapshot must carry
// exactly the reports of the jobs that succeeded. Run it under -race.
func TestProgressConsistentUnderConcurrency(t *testing.T) {
	const n = 24
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Device: "D1", Seed: int64(i)}
	}
	// Every third job fails its first attempt after reporting; every
	// fifth fails both attempts. Neither may leave a trace in the totals.
	var firstTries sync.Map
	runner := func(_ *testbed.Testbed, job Job, obs *Observer) (int, error) {
		i := int(job.Seed)
		obs.Report(&fuzz.Result{Findings: make([]fuzz.Finding, i%3+1),
			PacketsSent: 100 * (i + 1), Elapsed: time.Duration(i+1) * time.Minute})
		if i%5 == 0 {
			return 0, errors.New("always broken")
		}
		if _, retried := firstTries.LoadOrStore(i, true); !retried && i%3 == 0 {
			return 0, errors.New("flaky")
		}
		return i, nil
	}
	var want Progress
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			want.Failed++
			want.Retried++
			continue
		}
		if i%3 == 0 {
			want.Retried++
		}
		want.Done++
		want.Findings += i%3 + 1
		want.Packets += int64(100 * (i + 1))
		want.SimTime += time.Duration(i+1) * time.Minute
	}

	var last Progress
	var calls int
	cfg := Config{Workers: 4, MaxAttempts: 2, OnProgress: func(p Progress) {
		// The fleet serializes these calls, so no lock is needed here.
		calls++
		if p.Queued+p.Running+p.Done+p.Failed != p.Total || p.Total != n {
			t.Errorf("snapshot does not add up: %+v", p)
		}
		if p.Queued < 0 || p.Running < 0 {
			t.Errorf("negative queue or running count: %+v", p)
		}
		if p.Done < last.Done || p.Failed < last.Failed {
			t.Errorf("done/failed went back: %+v after %+v", p, last)
		}
		last = p
	}}
	results := Run(jobs, runner, cfg)
	for i, r := range results {
		if (r.Err != nil) != (i%5 == 0) {
			t.Errorf("job %d: err = %v", i, r.Err)
		}
	}
	if calls == 0 {
		t.Fatal("OnProgress never called")
	}
	if !last.Finished() || last.Running != 0 || last.Queued != 0 {
		t.Errorf("last snapshot not drained: %+v", last)
	}
	if last.Done != want.Done || last.Failed != want.Failed || last.Retried != want.Retried {
		t.Errorf("done/failed/retried = %d/%d/%d, want %d/%d/%d",
			last.Done, last.Failed, last.Retried, want.Done, want.Failed, want.Retried)
	}
	if last.Findings != want.Findings || last.Packets != want.Packets || last.SimTime != want.SimTime {
		t.Errorf("totals = %d findings, %d pkts, %s; want %d, %d, %s",
			last.Findings, last.Packets, last.SimTime, want.Findings, want.Packets, want.SimTime)
	}
}
