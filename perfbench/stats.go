package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples a reported percentile must have above it.
const minBeyond = 10

// ladder is the set of percentiles tailPercentile chooses from.
var ladder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999}

// rankOf is the nearest-rank index of quantile q in n sorted samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// percentile returns quantile q of sorted samples, failing when fewer than
// minBeyond samples lie above it.
func percentile(sorted []int64, q float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	r := rankOf(q, n)
	if n-1-r < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it, want %d", q*100, n, n-1-r, minBeyond)
	}
	return sorted[r], nil
}

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond samples beyond it, its value, and the sample count. ok is
// false when even the median lacks that many.
func tailPercentile(sorted []int64) (q float64, v int64, n int, ok bool) {
	n = len(sorted)
	for _, c := range ladder {
		r := rankOf(c, n)
		if n == 0 || n-1-r < minBeyond {
			break
		}
		q, v, ok = c, sorted[r], true
	}
	return q, v, n, ok
}

// sortSamples sorts latency samples in place and returns them.
func sortSamples(s []int64) []int64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the median of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
