package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that leaves
// at least ten of n samples strictly beyond its nearest-rank position, so
// a reported tail never rests on fewer than ten observations. ok is false
// when n is too small for any of them (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based nearest-rank index of percentile p among n
// sorted samples. The tolerance keeps a product such as 99.9% of 10000,
// which float64 makes 9990.000000000002, from rounding up a whole rank.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without modifying xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, or 0 when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies summarizes one run's per-op latencies in milliseconds.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, msOf(d)) }

func (l *latencies) p50() float64 { return median(l.ms) }

// tail returns the tail latency by the ten-samples-beyond rule, the
// percentile it was taken at, and whether enough samples exist.
func (l *latencies) tail() (ms, p float64, ok bool) {
	p, ok = tailPercentile(len(l.ms))
	if !ok {
		return 0, 0, false
	}
	return percentile(sortedCopy(l.ms), p), p, true
}

// p99 returns the 99th percentile when at least ten samples lie beyond
// it (n ≥ 1000), else ok == false.
func (l *latencies) p99() (float64, bool) {
	n := len(l.ms)
	if n-nearestRank(99, n) < 10 {
		return 0, false
	}
	return percentile(sortedCopy(l.ms), 99), true
}

// blockRate is the op rate of a phase that began at start, taken from
// the ops' completion times: the completions are cut, in order, into
// blocks of k, and the rate is k over the median block duration. A median
// of blocks keeps a burst of load from other tenants of the machine in a
// few blocks from moving the rate. With fewer than k ops it falls back to
// ops per second up to the last completion.
func blockRate(start time.Time, ends []time.Time, k int) float64 {
	if len(ends) == 0 {
		return 0
	}
	sorted := append([]time.Time(nil), ends...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Before(sorted[b]) })
	if len(sorted) < k {
		return float64(len(sorted)) / sorted[len(sorted)-1].Sub(start).Seconds()
	}
	var blocks []float64
	prev := start
	for i := k - 1; i < len(sorted); i += k {
		blocks = append(blocks, sorted[i].Sub(prev).Seconds())
		prev = sorted[i]
	}
	return float64(k) / median(blocks)
}
