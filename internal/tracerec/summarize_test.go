package tracerec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/simtime"
)

// sortSummarize is the sort-based Summarize that the quickselect version
// replaced, kept as the reference: sort a latency copy, read min and max
// at its ends and each percentile at its nearest rank.
func sortSummarize(l *Log) Summary {
	var s Summary
	s.Count = len(l.Records)
	if s.Count == 0 {
		return s
	}
	lats := make([]simtime.Duration, s.Count)
	var total int64
	var sum [numModes]int64
	for i, r := range l.Records {
		lats[i] = r.Latency()
		total += int64(lats[i])
		s.ByMode[r.Mode]++
		sum[r.Mode] += int64(lats[i])
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(p float64) simtime.Duration {
		idx := int(math.Ceil(p*float64(len(lats)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		return lats[idx]
	}
	s.Min, s.Max = lats[0], lats[len(lats)-1]
	s.Mean = simtime.Duration(total / int64(s.Count))
	s.P50, s.P95, s.P99 = at(0.50), at(0.95), at(0.99)
	means := [numModes]*simtime.Duration{&s.MeanDirct, &s.MeanIntp, &s.MeanDelay}
	for m, p := range means {
		if n := s.ByMode[m]; n > 0 {
			*p = simtime.Duration(sum[m] / int64(n))
		}
	}
	return s
}

// latencyShapes generate n latencies (µs) of one input shape.
var latencyShapes = []struct {
	name string
	gen  func(r *rand.Rand, n int) []int64
}{
	{"random", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = r.Int63n(5000)
		}
		return out
	}},
	{"all-equal", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = 42
		}
		return out
	}},
	// The Fig. 6 direct-latency shape: one value dominates, a tail of
	// interposed and delayed latencies spreads above it.
	{"90pct-duplicate", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			if r.Intn(10) == 0 {
				out[i] = 30 + r.Int63n(5000)
			} else {
				out[i] = 30
			}
		}
		return out
	}},
	{"sorted", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i) + r.Int63n(2)
			if i > 0 && out[i] < out[i-1] {
				out[i] = out[i-1]
			}
		}
		return out
	}},
	{"reverse-sorted", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(n - i)
		}
		return out
	}},
}

// TestSummarizeMatchesSortReference holds the quickselect Summarize to
// the sort-based reference on every input shape at every size 1..64 and
// at n = 15 000 (the combined Fig. 6 summary): every field must match.
func TestSummarizeMatchesSortReference(t *testing.T) {
	sizes := []int{15000}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	r := rand.New(rand.NewSource(1))
	for _, shape := range latencyShapes {
		for _, n := range sizes {
			var l Log
			for i, lat := range shape.gen(r, n) {
				arrival := r.Int63n(1_000_000)
				l.Add(rec(arrival, arrival+lat, Mode(i%int(numModes))))
			}
			want := sortSummarize(&l)
			if got := l.Summarize(); got != want {
				t.Fatalf("%s n=%d: Summarize = %+v, sort reference = %+v", shape.name, n, got, want)
			}
		}
	}
}
