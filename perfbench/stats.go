package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (p in [0, 100]) of
// xs, which it sorts in place. An empty sample has no percentile: NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is percentile 50 on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// ratio divides, answering 0 for an empty base so that a bypassed layer
// reports 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
