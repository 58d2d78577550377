package main

import (
	"sort"
	"time"
)

// samples holds per-operation latencies in nanoseconds. Percentiles are
// computed exactly from the sorted samples, never from histogram buckets,
// so a metric moves only when the latencies do.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between the closest ranks, the definition numpy and R use
// by default. It sorts s in place and returns 0 for an empty set.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	h := p / 100 * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return float64(s[len(s)-1])
	}
	return float64(s[lo]) + (h-float64(lo))*float64(s[lo+1]-s[lo])
}

// us returns the p-th percentile in microseconds.
func (s samples) us(p float64) float64 { return s.percentile(p) / 1e3 }

// mean returns the arithmetic mean in nanoseconds.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += float64(v)
	}
	return t / float64(len(s))
}

// merge concatenates per-worker sample sets.
func merge(parts ...samples) samples {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make(samples, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// lowerHalfMedian is the median of the lower half (rounded up) of v: the
// typical reading of the less disturbed half of repeated timings.
func lowerHalfMedian(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return median(c[:(len(c)+1)/2])
}

// median of a small set of readings (set-up and restart times).
func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}
