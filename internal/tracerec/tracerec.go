// Package tracerec records per-IRQ latency measurements and renders them
// the way the paper's evaluation reports them: latency histograms with
// per-handling-mode breakdown (Fig. 6), rolling-average latency series
// over event index (Fig. 7), and summary statistics.
//
// A latency is, as in §6.1, the time between top-handler activation (the
// hardware IRQ) and the completion of the corresponding bottom handler.
package tracerec

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/simtime"
)

// Mode classifies how an IRQ's bottom handler was processed.
type Mode int

const (
	// Direct: the IRQ arrived during its subscriber's own slot and the
	// bottom handler ran immediately after the top handler returned.
	Direct Mode = iota
	// Interposed: the bottom handler ran inside a foreign slot under
	// the monitoring condition (§5).
	Interposed
	// Delayed: the bottom handler waited for the subscriber's slot
	// (Fig. 3).
	Delayed
	numModes
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Direct:
		return "direct"
	case Interposed:
		return "interposed"
	case Delayed:
		return "delayed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Record is one measured IRQ delivery. Shared IRQs produce one record
// per subscriber partition.
type Record struct {
	Source    int          // IRQ source index
	Partition int          // partition whose bottom handler processed it
	Seq       uint64       // per-source delivery sequence number
	Arrival   simtime.Time // top-handler activation (hardware IRQ)
	Done      simtime.Time // bottom-handler completion
	Mode      Mode
	// Deferred marks an IRQ whose processing path differs from its
	// top-handler decision: a queued (delayed-decision) IRQ that a
	// *later* grant served via the FIFO queue. Such latencies include
	// queueing delay outside the eq. (16) interposed-path model.
	Deferred bool
}

// Latency returns Done − Arrival.
func (r Record) Latency() simtime.Duration { return r.Done.Sub(r.Arrival) }

// Log accumulates records.
type Log struct {
	Records []Record
}

// NewLog returns a log whose record slice is pre-sized to capacity, so
// hot-path appends never reallocate when the producer knows the final
// record count up front (e.g. internal/hv knows the arrival count).
func NewLog(capacity int) *Log {
	return &Log{Records: make([]Record, 0, capacity)}
}

// Add appends a record.
func (l *Log) Add(r Record) { l.Records = append(l.Records, r) }

// Len returns the number of records.
func (l *Log) Len() int { return len(l.Records) }

// Reset empties the log for reuse, keeping the backing array when its
// capacity covers the new expected record count (the arena contract:
// same-shaped reruns must not reallocate).
func (l *Log) Reset(capacity int) {
	if cap(l.Records) < capacity {
		l.Records = make([]Record, 0, capacity)
		return
	}
	l.Records = l.Records[:0]
}

// Truncate drops records beyond the first n, keeping capacity — the
// restore primitive of snapshot/fork: records are append-only, so
// rewinding a log to a snapshot is exactly a truncation.
func (l *Log) Truncate(n int) {
	if n < 0 || n > len(l.Records) {
		panic(fmt.Sprintf("tracerec: Truncate(%d) outside [0,%d]", n, len(l.Records)))
	}
	l.Records = l.Records[:n]
}

// Durations returns all latencies in record order. The caller owns the
// returned slice.
func (l *Log) Durations() []simtime.Duration {
	out := make([]simtime.Duration, len(l.Records))
	for i, r := range l.Records {
		out[i] = r.Latency()
	}
	return out
}

// Filter returns a new log with the records matching keep.
func (l *Log) Filter(keep func(Record) bool) *Log {
	out := &Log{}
	for _, r := range l.Records {
		if keep(r) {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// BySource returns the records of one IRQ source.
func (l *Log) BySource(src int) *Log {
	return l.Filter(func(r Record) bool { return r.Source == src })
}

// ByPartition returns the records processed by one partition.
func (l *Log) ByPartition(part int) *Log {
	return l.Filter(func(r Record) bool { return r.Partition == part })
}

// Summary holds aggregate latency statistics.
type Summary struct {
	Count     int
	ByMode    [3]int // indexed by Mode
	Mean      simtime.Duration
	Min       simtime.Duration
	Max       simtime.Duration
	P50       simtime.Duration
	P95       simtime.Duration
	P99       simtime.Duration
	MeanDirct simtime.Duration // mean over Direct records only
	MeanIntp  simtime.Duration // mean over Interposed records only
	MeanDelay simtime.Duration // mean over Delayed records only
}

// Summarize computes statistics over the log. It makes exactly one
// allocation (the latency slice, which doubles as the percentile
// selection buffer); sums, mode counts, min and max are accumulated in
// the same pass, and the percentiles are order statistics found by
// quickselect in expected O(n) instead of a full sort.
func (l *Log) Summarize() Summary {
	var s Summary
	s.Count = len(l.Records)
	if s.Count == 0 {
		return s
	}
	lats := make([]simtime.Duration, s.Count)
	var total, tDir, tInt, tDel int64
	s.Min = l.Records[0].Latency()
	s.Max = s.Min
	for i, r := range l.Records {
		lat := r.Latency()
		lats[i] = lat
		total += int64(lat)
		s.Min = min(s.Min, lat)
		s.Max = max(s.Max, lat)
		s.ByMode[r.Mode]++
		switch r.Mode {
		case Direct:
			tDir += int64(lat)
		case Interposed:
			tInt += int64(lat)
		case Delayed:
			tDel += int64(lat)
		}
	}
	s.Mean = simtime.Duration(total / int64(s.Count))
	// Ascending ranks: each selection leaves everything from its rank
	// on ≥ the selected value, so the next one searches only that tail.
	k50 := percentileRank(s.Count, 0.50)
	k95 := percentileRank(s.Count, 0.95)
	k99 := percentileRank(s.Count, 0.99)
	s.P50 = selectRank(lats, 0, k50)
	s.P95 = selectRank(lats, k50, k95)
	s.P99 = selectRank(lats, k95, k99)
	if n := s.ByMode[Direct]; n > 0 {
		s.MeanDirct = simtime.Duration(tDir / int64(n))
	}
	if n := s.ByMode[Interposed]; n > 0 {
		s.MeanIntp = simtime.Duration(tInt / int64(n))
	}
	if n := s.ByMode[Delayed]; n > 0 {
		s.MeanDelay = simtime.Duration(tDel / int64(n))
	}
	return s
}

// percentileRank is the 0-based rank of the nearest-rank p-th
// percentile among n values.
func percentileRank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
}

// selectRank returns the value of rank k (0-based, ascending) among
// a[lo:], partially reordering a[lo:] so that a[lo:k] ≤ a[k] ≤ a[k+1:].
// It is an iterative quickselect with a median-of-three pivot and a
// three-way partition, so runs of equal latencies (the Fig. 6 direct
// peak) collapse in one step; past 2·log₂(n) rounds it sorts the
// remaining range, bounding the worst case at O(n log n).
func selectRank(a []simtime.Duration, lo, k int) simtime.Duration {
	hi := len(a) // search range a[lo:hi] holds rank k
	for rounds := 2 * bits.Len(uint(hi-lo)); hi-lo > 1; rounds-- {
		if rounds == 0 {
			slices.Sort(a[lo:hi])
			break
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		pivot := max(min(x, y), min(max(x, y), z))
		// Dutch-flag partition: a[lo:lt] < pivot, a[lt:i] == pivot,
		// a[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[gt], a[i] = v, a[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	return a[k]
}

// Share returns the fraction of records handled in the given mode.
func (s Summary) Share(m Mode) float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.ByMode[m]) / float64(s.Count)
}

// WriteSummary renders a human-readable summary.
func (s Summary) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "IRQs: %d  (direct %d / %.1f%%, interposed %d / %.1f%%, delayed %d / %.1f%%)\n",
		s.Count,
		s.ByMode[Direct], 100*s.Share(Direct),
		s.ByMode[Interposed], 100*s.Share(Interposed),
		s.ByMode[Delayed], 100*s.Share(Delayed))
	fmt.Fprintf(w, "latency: mean %.1fµs  min %.1fµs  p50 %.1fµs  p95 %.1fµs  p99 %.1fµs  max %.1fµs\n",
		s.Mean.MicrosF(), s.Min.MicrosF(), s.P50.MicrosF(), s.P95.MicrosF(), s.P99.MicrosF(), s.Max.MicrosF())
}

// Histogram is a fixed-bin latency histogram, as in Fig. 6.
type Histogram struct {
	BinWidth simtime.Duration
	Bins     []int    // Bins[i] counts latencies in [i·w, (i+1)·w)
	ByMode   [][3]int // same bins, split per handling mode
	Overflow int
	Total    int
}

// NewHistogram builds a histogram over the log with the given bin width
// and range [0, max).
func (l *Log) NewHistogram(binWidth, max simtime.Duration) *Histogram {
	if binWidth <= 0 {
		panic("tracerec: non-positive bin width")
	}
	n := int(simtime.CeilDiv(max, binWidth))
	h := &Histogram{
		BinWidth: binWidth,
		Bins:     make([]int, n),
		ByMode:   make([][3]int, n),
	}
	for _, r := range l.Records {
		lat := r.Latency()
		i := int(lat / binWidth)
		h.Total++
		if i >= n {
			h.Overflow++
			continue
		}
		h.Bins[i]++
		h.ByMode[i][r.Mode]++
	}
	return h
}

// WriteCSV emits "bin_start_us,count,direct,interposed,delayed" rows.
func (h *Histogram) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "bin_start_us,count,direct,interposed,delayed")
	for i, c := range h.Bins {
		start := simtime.Duration(i) * h.BinWidth
		fmt.Fprintf(w, "%d,%d,%d,%d,%d\n", start.Micros(), c, h.ByMode[i][Direct], h.ByMode[i][Interposed], h.ByMode[i][Delayed])
	}
	if h.Overflow > 0 {
		fmt.Fprintf(w, "overflow,%d,,,\n", h.Overflow)
	}
}

// WriteASCII renders the histogram as a text bar chart, log-compressing
// the dominant first bins the way the paper uses a broken y-axis.
func (h *Histogram) WriteASCII(w io.Writer, width int) {
	maxCount := 0
	for _, c := range h.Bins {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		fmt.Fprintln(w, "(empty histogram)")
		return
	}
	for i, c := range h.Bins {
		if c == 0 {
			continue
		}
		start := simtime.Duration(i) * h.BinWidth
		// Log scale: the first bin (direct IRQs) dwarfs the rest.
		bar := 0
		if c > 0 {
			bar = int(float64(width) * math.Log1p(float64(c)) / math.Log1p(float64(maxCount)))
			if bar == 0 {
				bar = 1
			}
		}
		fmt.Fprintf(w, "%7dµs |%-*s| %d\n", start.Micros(), width, strings.Repeat("#", bar), c)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(w, "  >range  %d\n", h.Overflow)
	}
}

// RollingAverage returns the running mean latency after each record, in
// µs — the y-axis of Fig. 7. window == 0 yields the cumulative mean from
// the start (matching the figure's "average IRQ latency" trajectory);
// window > 0 yields a sliding-window mean.
func (l *Log) RollingAverage(window int) []float64 {
	out := make([]float64, len(l.Records))
	if window <= 0 {
		var sum float64
		for i, r := range l.Records {
			sum += r.Latency().MicrosF()
			out[i] = sum / float64(i+1)
		}
		return out
	}
	var sum float64
	for i, r := range l.Records {
		sum += r.Latency().MicrosF()
		if i >= window {
			sum -= l.Records[i-window].Latency().MicrosF()
			out[i] = sum / float64(window)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out
}

// Series is a named (x, y) series for figure output.
type Series struct {
	Name string
	Y    []float64
}

// WriteSeriesCSV writes aligned series as CSV with an index column.
// Shorter series are padded with empty cells.
func WriteSeriesCSV(w io.Writer, series ...Series) {
	fmt.Fprint(w, "idx")
	maxLen := 0
	for _, s := range series {
		fmt.Fprintf(w, ",%s", s.Name)
		if len(s.Y) > maxLen {
			maxLen = len(s.Y)
		}
	}
	fmt.Fprintln(w)
	for i := 0; i < maxLen; i++ {
		fmt.Fprintf(w, "%d", i)
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(w, ",%.2f", s.Y[i])
			} else {
				fmt.Fprint(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
}

// Downsample returns every k-th element of y (plus the final element),
// keeping figure-sized output compact.
func Downsample(y []float64, k int) []float64 {
	if k <= 1 || len(y) == 0 {
		return append([]float64(nil), y...)
	}
	var out []float64
	for i := 0; i < len(y); i += k {
		out = append(out, y[i])
	}
	if (len(y)-1)%k != 0 {
		out = append(out, y[len(y)-1])
	}
	return out
}
