package vtime

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// SimClock is a deterministic simulated clock with an event queue.
//
// The zero value is not usable; construct with NewSimClock. Now is a
// lock-free load and safe from any goroutine; queue operations are
// serialised by a mutex (see the package doc for the driving contract).
type SimClock struct {
	// now is nanoseconds since SimEpoch. Only ever raised, and only under
	// mu, so lock-free readers never see simulated time move backwards.
	now atomic.Int64

	mu     sync.Mutex
	queue  []event // binary min-heap ordered by (at, seq)
	nextID uint64
}

var _ Clock = (*SimClock)(nil)

// SimEpoch is the default origin for simulated time. Its concrete value is
// irrelevant to results; a fixed non-zero origin makes logged timestamps
// readable and catches code that wrongly compares against the zero Time.
var SimEpoch = time.Date(2025, time.January, 1, 0, 0, 0, 0, time.UTC)

// NewSimClock returns a SimClock starting at SimEpoch.
func NewSimClock() *SimClock { return new(SimClock) }

// Now implements Clock; time.Unix builds SimEpoch.Add(now) at half the cost.
func (c *SimClock) Now() time.Time {
	ns := c.now.Load()
	return time.Unix(SimEpoch.Unix()+ns/1e9, ns%1e9).UTC()
}

// Sleep implements Clock by advancing simulated time, firing any events
// scheduled inside the interval in timestamp order.
func (c *SimClock) Sleep(d time.Duration) {
	if d > 0 {
		c.advanceTo(addSat(c.now.Load(), d))
	}
}

// Advance moves simulated time forward by d, firing due events in order.
func (c *SimClock) Advance(d time.Duration) { c.Sleep(d) }

// AdvanceTo moves simulated time forward to instant t, firing due events in
// order. Moving backwards is a no-op.
func (c *SimClock) AdvanceTo(t time.Time) {
	c.advanceTo(int64(t.Sub(SimEpoch)))
}

// advanceTo fires every event due at or before t (nanoseconds since
// SimEpoch), then moves the clock to t if it is still behind.
func (c *SimClock) advanceTo(t int64) {
	c.fireDue(t, math.MaxInt)
	if t > c.now.Load() {
		c.now.Store(t)
	}
	c.mu.Unlock()
}

// fireDue locks c.mu and fires the events due at or before t in (at,
// seq) order, unlocking around each callback. It returns with c.mu held,
// and panics after budget events (only RunUntilIdle sets one).
func (c *SimClock) fireDue(t int64, budget int) {
	c.mu.Lock()
	for i := 0; len(c.queue) > 0 && c.queue[0].at <= t; i++ {
		if i >= budget {
			c.mu.Unlock()
			panic(fmt.Sprintf("vtime: RunUntilIdle exceeded %d events; self-rescheduling loop?", budget))
		}
		fn := c.pop()
		c.mu.Unlock()
		fn()
		c.mu.Lock()
	}
}

// Elapsed reports how much simulated time has passed since the given origin.
func (c *SimClock) Elapsed(origin time.Time) time.Duration {
	return c.Now().Sub(origin)
}

// Schedule registers fn to run when simulated time reaches now+delay.
// Events scheduled for the same instant fire in scheduling order. The
// callback runs on the goroutine that advances the clock.
func (c *SimClock) Schedule(delay time.Duration, fn func()) {
	if fn == nil {
		panic("vtime: Schedule called with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	c.mu.Lock()
	c.nextID++
	c.queue = append(c.queue, event{at: addSat(c.now.Load(), delay), seq: c.nextID, fn: fn})
	c.up(len(c.queue) - 1)
	c.mu.Unlock()
}

// PendingEvents reports the number of scheduled events not yet fired.
func (c *SimClock) PendingEvents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// RunUntilIdle fires all scheduled events (including ones scheduled by
// fired events), advancing time as needed, and returns the final instant.
// It guards against runaway self-rescheduling with a generous event budget.
func (c *SimClock) RunUntilIdle() time.Time {
	c.fireDue(math.MaxInt64, 10_000_000)
	c.mu.Unlock()
	return c.Now()
}

// addSat returns now+d, saturating instead of wrapping past the int64
// range so far-future events still sort last.
func addSat(now int64, d time.Duration) int64 {
	if at := now + int64(d); at >= now {
		return at
	}
	return math.MaxInt64
}

// event is a single scheduled callback, at nanoseconds since SimEpoch.
type event struct {
	at  int64
	seq uint64 // tiebreak: FIFO among equal timestamps
	fn  func()
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// pop removes the earliest event, moves the clock to its instant, and
// returns its callback. Callers hold c.mu and a non-empty queue.
func (c *SimClock) pop() func() {
	q := c.queue
	ev, n := q[0], len(q)-1
	q[0] = q[n]
	q[n] = event{} // drop the callback reference
	c.queue = q[:n]
	c.down(0)
	if ev.at > c.now.Load() {
		c.now.Store(ev.at)
	}
	return ev.fn
}

// up restores the heap order after appending at index i.
func (c *SimClock) up(i int) {
	q := c.queue
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			return
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// down restores the heap order after replacing the root.
func (c *SimClock) down(i int) {
	q := c.queue
	for {
		l := 2*i + 1
		if l >= len(q) {
			return
		}
		m := l
		if r := l + 1; r < len(q) && q[r].before(&q[l]) {
			m = r
		}
		if !q[m].before(&q[i]) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}
