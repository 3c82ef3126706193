package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples and the number of samples strictly above it. A percentile is only worth reporting when at least ten
// samples lie beyond it; callers print the count next to the value.
func percentile(samples []int64, p float64) (value int64, beyond int) {
	if len(samples) == 0 {
		return 0, 0
	}
	samples = append([]int64(nil), samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	value = samples[rank-1]
	beyond = len(samples) - sort.Search(len(samples), func(i int) bool { return samples[i] > value })
	return value, beyond
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open span of time [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [start, end) the union of ivs covers.
// Overlapping intervals are counted once, and the parts of an interval
// outside [start, end) are ignored.
func covered(start, end int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, start), min(iv.end, end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = start
	for _, iv := range clipped {
		s := max(iv.start, reach)
		if iv.end > s {
			total += iv.end - s
			reach = iv.end
		}
	}
	return total
}

// windows counts the executions that completed in each whole window of
// width; a partial last window is dropped.
func windows(done []int64, width, phase int64) []int {
	counts := make([]int, phase/width)
	for _, t := range done {
		if w := int(t / width); w < len(counts) {
			counts[w]++
		}
	}
	return counts
}
