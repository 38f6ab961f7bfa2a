package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to mean anything: a p99 from 300 samples is the third-largest
// value, not a tail estimate.
const minBeyond = 10

// tailPercentiles are the candidates tailPercentile chooses from,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// rank returns the nearest-rank index of percentile p (0 < p ≤ 100)
// among n sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps p99.9 of 10000 at rank 9990, not 9991 (99.9 has
	// no exact binary form).
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// percentile returns the nearest-rank percentile p of sorted; NaN when
// it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)]
}

// tailMean returns the mean of the samples of sorted that lie above its
// nearest-rank percentile p; NaN when none do.
func tailMean(sorted []float64, p float64) float64 {
	n := len(sorted)
	if beyond(n, p) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range sorted[rank(n, p)+1:] {
		sum += x
	}
	return sum / float64(beyond(n, p))
}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least minBeyond of n samples above it, and false when none does.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio returns a/b, or 0 when b is 0 (a per-layer count that did not
// occur on a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
