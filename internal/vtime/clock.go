// Package vtime provides the simulated-time substrate used throughout the
// ZCover reproduction.
//
// The paper's evaluation runs wall-clock campaigns (five 24-hour fuzzing
// trials per controller). Reproducing those campaigns against an emulated
// testbed would be pointlessly slow and non-deterministic on real time, so
// every component in this repository — the radio medium, the device models,
// the fuzzing engine, the liveness monitor — takes time from a Clock
// interface instead of the time package. Production-style code paths use
// SystemClock; simulations and tests use SimClock, which only advances when
// told to (directly or through its event queue).
//
// # Concurrency
//
// SimClock keeps simulated time as int64 nanoseconds since SimEpoch in an
// atomic, so Now is a lock-free load that is safe from any goroutine and
// never observes time moving backwards. Queue operations (Schedule,
// Advance, AdvanceTo, Sleep, RunUntilIdle, PendingEvents) are serialised
// by a mutex around the event heap. Each clock is nevertheless driven by
// one goroutine: determinism comes from the queue's (instant, scheduling
// order) total order, which concurrent Advance calls would destroy, so
// parallel fleet campaigns hold one private SimClock each. Events live by
// value in a typed binary heap: scheduling allocates only to grow it.
package vtime

import "time"

// Clock abstracts the passage of time. All timestamps are absolute
// time.Time values so durations and deadlines compose with the standard
// library.
type Clock interface {
	// Now reports the current instant on this clock.
	Now() time.Time
	// Sleep advances past d. On a SimClock this advances simulated time
	// immediately; on SystemClock it blocks.
	Sleep(d time.Duration)
}

// SystemClock is a Clock backed by the real time package.
type SystemClock struct{}

var _ Clock = SystemClock{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (SystemClock) Sleep(d time.Duration) { time.Sleep(d) }
