package vtime

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSimClockStartsAtEpoch(t *testing.T) {
	c := NewSimClock()
	if got := c.Now(); !got.Equal(SimEpoch) {
		t.Fatalf("Now() = %v, want %v", got, SimEpoch)
	}
}

// TestSimClockNowIsEpochPlusElapsed pins Now's value, representation
// included (==, not Equal), to SimEpoch.Add of the elapsed time.
func TestSimClockNowIsEpochPlusElapsed(t *testing.T) {
	c := NewSimClock()
	var elapsed time.Duration
	for _, d := range []time.Duration{0, 1, 999_999_999, time.Second, 36 * time.Hour, 1234567891011} {
		c.Advance(d)
		elapsed += d
		if got, want := c.Now(), SimEpoch.Add(elapsed); got != want {
			t.Fatalf("Now() after %v = %#v, want %#v", elapsed, got, want)
		}
	}
}

func TestSimClockAdvanceMovesNow(t *testing.T) {
	c := NewSimClock()
	c.Advance(3 * time.Second)
	if got, want := c.Now().Sub(SimEpoch), 3*time.Second; got != want {
		t.Fatalf("Now()-SimEpoch = %v, want %v", got, want)
	}
}

func TestSimClockAdvanceNonPositive(t *testing.T) {
	c := NewSimClock()
	c.Advance(0)
	c.Advance(-time.Second)
	if got := c.Now().Sub(SimEpoch); got != 0 {
		t.Fatalf("Now()-SimEpoch = %v, want 0", got)
	}
}

func TestSimClockAdvanceToBackwardsIsNoop(t *testing.T) {
	c := NewSimClock()
	c.Advance(time.Minute)
	c.AdvanceTo(SimEpoch)
	if got, want := c.Now().Sub(SimEpoch), time.Minute; got != want {
		t.Fatalf("Now()-SimEpoch = %v, want %v", got, want)
	}
}

func TestSimClockScheduleFiresInOrder(t *testing.T) {
	c := NewSimClock()
	var order []int
	c.Schedule(2*time.Second, func() { order = append(order, 2) })
	c.Schedule(1*time.Second, func() { order = append(order, 1) })
	c.Schedule(3*time.Second, func() { order = append(order, 3) })
	c.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
}

func TestSimClockScheduleSameInstantFIFO(t *testing.T) {
	c := NewSimClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Second, func() { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestSimClockEventSeesOwnTimestamp(t *testing.T) {
	c := NewSimClock()
	var at time.Time
	c.Schedule(7*time.Second, func() { at = c.Now() })
	c.Advance(time.Hour)
	if want := SimEpoch.Add(7 * time.Second); !at.Equal(want) {
		t.Fatalf("callback observed Now()=%v, want %v", at, want)
	}
}

func TestSimClockPartialAdvanceLeavesFutureEvents(t *testing.T) {
	c := NewSimClock()
	fired := 0
	c.Schedule(1*time.Second, func() { fired++ })
	c.Schedule(10*time.Second, func() { fired++ })
	c.Advance(5 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d after partial advance, want 1", fired)
	}
	if got := c.PendingEvents(); got != 1 {
		t.Fatalf("PendingEvents = %d, want 1", got)
	}
}

func TestSimClockRunUntilIdleChainsEvents(t *testing.T) {
	c := NewSimClock()
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 5 {
			c.Schedule(time.Second, chain)
		}
	}
	c.Schedule(time.Second, chain)
	end := c.RunUntilIdle()
	if depth != 5 {
		t.Fatalf("chained events fired %d times, want 5", depth)
	}
	if want := SimEpoch.Add(5 * time.Second); !end.Equal(want) {
		t.Fatalf("RunUntilIdle ended at %v, want %v", end, want)
	}
}

func TestSimClockScheduleNegativeDelayFiresImmediately(t *testing.T) {
	c := NewSimClock()
	fired := false
	c.Schedule(-time.Second, func() { fired = true })
	c.Advance(0)
	if fired {
		t.Fatal("event fired without any advance")
	}
	c.Advance(time.Nanosecond)
	if !fired {
		t.Fatal("negative-delay event did not fire on first advance")
	}
}

// TestSimClockFarFutureSaturates: a delay past the int64 nanosecond range
// saturates instead of wrapping into the past, so it neither fires early
// nor overtakes a nearer event.
func TestSimClockFarFutureSaturates(t *testing.T) {
	c := NewSimClock()
	c.Advance(time.Hour)
	var order []int
	c.Schedule(math.MaxInt64, func() { order = append(order, 2) })
	c.Schedule(100*365*24*time.Hour, func() { order = append(order, 1) })
	c.Advance(24 * time.Hour)
	if len(order) != 0 {
		t.Fatalf("far-future events fired after a day: %v", order)
	}
	c.RunUntilIdle()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("far-future events fired in order %v, want [1 2]", order)
	}
}

func TestSimClockScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewSimClock().Schedule(time.Second, nil)
}

// Property: advancing by a sequence of non-negative durations always yields
// an elapsed time equal to their sum, regardless of interleaved scheduling.
func TestSimClockAdvanceSumProperty(t *testing.T) {
	prop := func(steps []uint16) bool {
		c := NewSimClock()
		var total time.Duration
		for _, s := range steps {
			d := time.Duration(s) * time.Millisecond
			c.Schedule(d/2, func() {})
			c.Advance(d)
			total += d
		}
		return c.Now().Sub(SimEpoch) == total
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: events never fire before their scheduled instant.
func TestSimClockNoEarlyFireProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		c := NewSimClock()
		ok := true
		for _, d := range delays {
			delay := time.Duration(d) * time.Millisecond
			due := c.Now().Add(delay)
			c.Schedule(delay, func() {
				if c.Now().Before(due) {
					ok = false
				}
			})
		}
		c.RunUntilIdle()
		return ok
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// refClock is the SimClock this package shipped before the int64 value
// heap: time.Time instants and container/heap over event pointers. It is
// the reference model for TestSimClockMatchesReferenceModel.
type refClock struct {
	now    time.Time
	queue  refQueue
	nextID uint64
}

type refEvent struct {
	at  time.Time
	seq uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

func (c *refClock) Now() time.Time     { return c.now }
func (c *refClock) PendingEvents() int { return len(c.queue) }

func (c *refClock) Advance(d time.Duration) {
	if d > 0 {
		c.AdvanceTo(c.now.Add(d))
	}
}

func (c *refClock) AdvanceTo(t time.Time) {
	for len(c.queue) > 0 && !c.queue[0].at.After(t) {
		c.fire()
	}
	if t.After(c.now) {
		c.now = t
	}
}

func (c *refClock) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	c.nextID++
	heap.Push(&c.queue, &refEvent{at: c.now.Add(delay), seq: c.nextID, fn: fn})
}

func (c *refClock) RunUntilIdle() time.Time {
	for len(c.queue) > 0 {
		c.fire()
	}
	return c.now
}

func (c *refClock) fire() {
	ev := heap.Pop(&c.queue).(*refEvent)
	if ev.at.After(c.now) {
		c.now = ev.at
	}
	ev.fn()
}

// drivenClock is the surface TestSimClockMatchesReferenceModel drives.
type drivenClock interface {
	Now() time.Time
	Schedule(time.Duration, func())
	Advance(time.Duration)
	AdvanceTo(time.Time)
	RunUntilIdle() time.Time
	PendingEvents() int
}

// driveRandomly runs one seeded random program against c and returns its
// trace: every firing with the Now() its callback saw, and the clock's
// instant and queue length after every top-level operation. Delays are
// zero, negative, coarse (so many events share an instant) or fine;
// callbacks schedule further events; AdvanceTo also moves backwards.
func driveRandomly(c drivenClock, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	delay := func() time.Duration {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return -time.Duration(rng.Intn(1000) + 1)
		case 2:
			return time.Duration(rng.Intn(4)) * time.Millisecond
		default:
			return time.Duration(rng.Intn(5_000_000))
		}
	}
	nextID := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		c.Schedule(delay(), func() {
			trace = append(trace, fmt.Sprintf("fire %d at %v", id, c.Now().Sub(SimEpoch)))
			for n := rng.Intn(3); depth < 3 && n > 0; n-- {
				schedule(depth + 1)
			}
		})
	}
	for op := 0; op < 300; op++ {
		switch rng.Intn(7) {
		case 0, 1, 2:
			schedule(0)
		case 3:
			c.Advance(time.Duration(rng.Intn(4_000_000) - 1_000_000))
		case 4:
			c.Advance(time.Duration(rng.Intn(3)) * time.Millisecond)
		case 5:
			c.AdvanceTo(c.Now().Add(time.Duration(rng.Intn(4_000_000) - 2_000_000)))
		case 6:
			trace = append(trace, fmt.Sprintf("idle at %v", c.RunUntilIdle().Sub(SimEpoch)))
		}
		trace = append(trace, fmt.Sprintf("op %d now %v pending %d", op, c.Now().Sub(SimEpoch), c.PendingEvents()))
	}
	return trace
}

// Property: the int64 value heap fires events in exactly the reference
// model's (instant, scheduling order) order, every callback sees the same
// Now(), and the clock agrees after every operation.
func TestSimClockMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want := driveRandomly(&refClock{now: SimEpoch}, seed)
		got := driveRandomly(NewSimClock(), seed)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end of trace>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: step %d is %q, reference model has %q", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace has %d steps, reference model %d", seed, len(got), len(want))
		}
	}
}

// TestSimClockSteadyStateAllocs: events are heap values, so once the
// queue's backing array has grown, scheduling and firing allocate nothing.
func TestSimClockSteadyStateAllocs(t *testing.T) {
	c := NewSimClock()
	fired := 0
	fn := func() { fired++ }
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Schedule(time.Millisecond, fn)
		c.Schedule(time.Millisecond, fn)
		c.Advance(time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Schedule+Advance allocates %.1f times per cycle, want 0", allocs)
	}
	if fired != 2*1001 {
		t.Fatalf("fired %d events, want %d", fired, 2*1001)
	}
}

// TestSimClockNowConcurrentReadsMonotonic reads Now() from one goroutine
// while another drives Advance and Schedule. Under -race this pins Now as
// safe from any goroutine; the reader must never see time go backwards.
func TestSimClockNowConcurrentReadsMonotonic(t *testing.T) {
	c := NewSimClock()
	started, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := c.Now()
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := c.Now()
			if now.Before(last) {
				t.Errorf("Now() went backwards: %v after %v", now, last)
				return
			}
			last = now
		}
	}()
	<-started
	for i := 0; i < 5000; i++ {
		c.Schedule(time.Duration(i%7)*time.Millisecond, func() { c.Schedule(time.Millisecond, func() {}) })
		c.Advance(time.Duration(i%5) * time.Millisecond)
		if i%500 == 0 {
			c.RunUntilIdle()
		}
	}
	close(stop)
	wg.Wait()
}
