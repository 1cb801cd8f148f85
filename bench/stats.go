package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks. xs is not modified; empty input
// gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// rung is one step of the tail-percentile ladder; perMille is the
// percentile in thousandths so sample counts stay exact integers.
type rung struct {
	name     string
	perMille int
}

// tailLadder is the ladder campaign_cpu_s.tail climbs, highest rung
// first. It stops at p95: on a shared host the top 1% of campaign times
// is set by other tenants' bursts and GC assists — over five coord runs
// p99 ranged ±40% where p95 ranged ±8%.
var tailLadder = []rung{{"p95", 950}, {"p90", 900}, {"p75", 750}}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported.
const minBeyond = 10

// tail is the tail percentile a run reports and the evidence behind it.
type tail struct {
	name   string
	value  float64
	n      int
	beyond int
}

// beyondCount is how many of n samples lie beyond the rung's percentile.
func (r rung) beyondCount(n int) int { return n * (1000 - r.perMille) / 1000 }

// pickTail returns the highest ladder percentile with at least minBeyond
// samples beyond it. Runs too short to reach even p75 still report p75
// (with the smaller count) so the metric keeps one meaning.
func pickTail(xs []float64) tail {
	r := tailLadder[len(tailLadder)-1]
	for _, cand := range tailLadder {
		if cand.beyondCount(len(xs)) >= minBeyond {
			r = cand
			break
		}
	}
	return tail{
		name:   r.name,
		value:  percentile(xs, float64(r.perMille)/1000),
		n:      len(xs),
		beyond: r.beyondCount(len(xs)),
	}
}

// quartiles returns the first quartile, median, and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(n=4), so the
// spreads printed here match the ones an external checker computes.
// Fewer than two values give that value (or 0) for all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median is the middle quartile of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// logHist is a lock-free log-linear histogram of durations: eight
// sub-buckets per power of two (12.5% resolution), for per-call timings
// too numerous to keep as raw samples.
type logHist struct {
	buckets [8 + 61*8]atomic.Int64
}

// bucketOf maps a duration in ns to its bucket index.
func bucketOf(ns int64) int {
	if ns < 8 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // e ≥ 3
	sub := int(ns>>(e-3)) & 7
	return 8 + (e-3)*8 + sub
}

// bucketMid is the midpoint of bucket i in ns.
func bucketMid(i int) float64 {
	if i < 8 {
		return float64(i)
	}
	e := (i-8)/8 + 3
	sub := (i - 8) % 8
	lo := float64(int64(8+sub) << (e - 3))
	width := float64(int64(1) << (e - 3))
	return lo + width/2
}

// observe records one duration.
func (h *logHist) observe(d time.Duration) { h.buckets[bucketOf(int64(d))].Add(1) }

// count returns the number of observations.
func (h *logHist) count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// quantileNs returns the q-quantile in ns (bucket midpoint), 0 when empty.
func (h *logHist) quantileNs(q float64) float64 {
	total := h.count()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.buckets) - 1)
}
