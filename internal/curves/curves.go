// Package curves implements the event models used throughout the paper:
// upper arrival functions η⁺(Δt) and their dual minimum-distance
// functions δ⁻(q).
//
// η⁺(Δt) bounds the number of events of a stream that can fall into any
// time window of length Δt; δ⁻(q) is the minimum distance between the
// first and the last of any q consecutive events (δ⁻(0) = δ⁻(1) = 0).
// The two are duals:
//
//	η⁺(Δt) = max{ q ≥ 0 : δ⁻(q) ≤ Δt }      (closed windows, conservative)
//	δ⁻(q)  = min{ Δt ≥ 0 : η⁺(Δt) ≥ q }
//
// The busy-window analysis of §4 consumes η⁺; the activation monitor of §5
// and Appendix A operates on finite δ⁻ prefixes.
package curves

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
)

// Model describes an event stream by its arrival bounds.
type Model interface {
	// EtaPlus returns the maximum number of events in any closed time
	// window of length dt. EtaPlus(d) for d < 0 is 0.
	EtaPlus(dt simtime.Duration) int64
	// DeltaMin returns the minimum distance between the first and last
	// of q consecutive events. DeltaMin(q) for q <= 1 is 0.
	DeltaMin(q int64) simtime.Duration
}

// EtaFromDelta derives η⁺(Δt) from a δ⁻ function by duality. delta must
// be non-decreasing in q and unbounded (δ⁻(q) → ∞), otherwise the search
// cannot terminate; limit caps the returned value as a safety net for
// degenerate inputs.
func EtaFromDelta(delta func(q int64) simtime.Duration, dt simtime.Duration, limit int64) int64 {
	if dt < 0 {
		return 0
	}
	// Exponential search for an upper bracket, then binary search for
	// the largest q with δ⁻(q) ≤ dt.
	lo, hi := int64(1), int64(2)
	for delta(hi) <= dt {
		lo = hi
		hi *= 2
		if hi >= limit {
			hi = limit
			break
		}
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if delta(mid) <= dt {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// DeltaFromEta derives δ⁻(q) from an η⁺ function by duality: the smallest
// window that can hold q events. eta must be non-decreasing; horizon caps
// the search.
func DeltaFromEta(eta func(dt simtime.Duration) int64, q int64, horizon simtime.Duration) simtime.Duration {
	if q <= 1 {
		return 0
	}
	lo, hi := simtime.Duration(0), simtime.Duration(1)
	for eta(hi) < q {
		lo = hi
		hi *= 2
		if hi >= horizon {
			hi = horizon
			break
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if eta(mid) >= q {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Periodic is a strictly periodic event stream.
type Periodic struct {
	Period simtime.Duration
}

// EtaPlus implements Model.
func (p Periodic) EtaPlus(dt simtime.Duration) int64 {
	if dt < 0 {
		return 0
	}
	if p.Period <= 0 {
		panic("curves: Periodic with non-positive period")
	}
	return int64(dt/p.Period) + 1
}

// DeltaMin implements Model.
func (p Periodic) DeltaMin(q int64) simtime.Duration {
	if q <= 1 {
		return 0
	}
	return simtime.Duration(q-1) * p.Period
}

// PJD is the standard event model of compositional performance analysis
// (Richter 2004): a periodic stream with release jitter and a minimum
// inter-event distance.
type PJD struct {
	Period simtime.Duration
	Jitter simtime.Duration
	DMin   simtime.Duration // minimum distance between consecutive events
}

// Validate reports whether the model parameters are consistent.
func (m PJD) Validate() error {
	if m.Period <= 0 {
		return errors.New("curves: PJD period must be positive")
	}
	if m.Jitter < 0 {
		return errors.New("curves: PJD jitter must be non-negative")
	}
	if m.DMin < 0 {
		return errors.New("curves: PJD dmin must be non-negative")
	}
	if m.DMin > m.Period {
		return errors.New("curves: PJD dmin must not exceed period")
	}
	return nil
}

// DeltaMin implements Model:
// δ⁻(q) = max((q−1)·dmin, (q−1)·P − J).
func (m PJD) DeltaMin(q int64) simtime.Duration {
	if q <= 1 {
		return 0
	}
	byDMin := simtime.Duration(q-1) * m.DMin
	byPeriod := simtime.Duration(q-1)*m.Period - m.Jitter
	return simtime.Max(byDMin, byPeriod)
}

// EtaPlus implements Model, via duality with DeltaMin. A closed form
// exists but the dual keeps η⁺ and δ⁻ consistent by construction.
func (m PJD) EtaPlus(dt simtime.Duration) int64 {
	if dt < 0 {
		return 0
	}
	return EtaFromDelta(m.DeltaMin, dt, 1<<40)
}

// Sporadic is an event stream constrained only by a minimum distance
// between consecutive events — the l = 1 monitoring condition of §5.
type Sporadic struct {
	DMin simtime.Duration
}

// EtaPlus implements Model: ⌊Δt/dmin⌋ + 1 events fit in a closed window.
func (s Sporadic) EtaPlus(dt simtime.Duration) int64 {
	if dt < 0 {
		return 0
	}
	if s.DMin <= 0 {
		panic("curves: Sporadic with non-positive dmin")
	}
	return int64(dt/s.DMin) + 1
}

// DeltaMin implements Model.
func (s Sporadic) DeltaMin(q int64) simtime.Duration {
	if q <= 1 {
		return 0
	}
	return simtime.Duration(q-1) * s.DMin
}

// Delta is an explicit finite δ⁻ function, as learned and enforced by the
// activation monitor (Appendix A). Dist[i] holds δ⁻(i+2): the minimum
// distance between i+2 consecutive events, i.e. Dist[0] is the minimum
// distance between any two consecutive events. Beyond the recorded prefix
// the function is extended conservatively (see Extend).
type Delta struct {
	Dist []simtime.Duration
}

// NewDelta returns a Delta over a copy of dist. It returns an error when
// dist is empty or not non-decreasing (a δ⁻ function is non-decreasing in
// q by definition).
func NewDelta(dist []simtime.Duration) (*Delta, error) {
	if len(dist) == 0 {
		return nil, errors.New("curves: empty δ⁻ function")
	}
	for i, d := range dist {
		if d < 0 {
			return nil, fmt.Errorf("curves: δ⁻[%d] = %v is negative", i, d)
		}
		if i > 0 && d < dist[i-1] {
			return nil, fmt.Errorf("curves: δ⁻ not non-decreasing at index %d (%v < %v)", i, d, dist[i-1])
		}
	}
	return &Delta{Dist: append([]simtime.Duration(nil), dist...)}, nil
}

// Len returns l, the number of recorded entries.
func (d *Delta) Len() int { return len(d.Dist) }

// DeltaMin implements Model. For q beyond the recorded prefix, δ⁻ is
// extended by the superadditive sliding rule
//
//	δ⁻(q) = δ⁻(l+1) + δ⁻(q−l)   for q > l+1,
//
// which treats the recorded window as repeatable — the standard
// conservative extension for monitored δ⁻ prefixes.
func (d *Delta) DeltaMin(q int64) simtime.Duration {
	if q <= 1 {
		return 0
	}
	l := int64(len(d.Dist))
	if q-2 < l {
		return d.Dist[q-2]
	}
	last := d.Dist[l-1] // δ⁻(l+1)
	if last <= 0 {
		// A degenerate all-zero prefix admits unbounded bursts; the
		// extension stays zero.
		return 0
	}
	full := (q - 1 - l) / l
	rem := (q - 1 - l) % l // remaining events beyond the full windows
	v := simtime.Duration(full+1) * last
	if rem > 0 {
		v += d.Dist[rem-1]
	}
	return v
}

// EtaPlus implements Model via duality.
func (d *Delta) EtaPlus(dt simtime.Duration) int64 {
	if dt < 0 {
		return 0
	}
	if d.Dist[len(d.Dist)-1] <= 0 {
		panic("curves: η⁺ of a degenerate all-zero δ⁻ is unbounded")
	}
	return EtaFromDelta(d.DeltaMin, dt, 1<<40)
}

// ScaleDistances returns a copy of d with every distance multiplied by
// factor. Multiplying distances by k divides the admissible long-term
// load by k; Appendix A's "allow 25 % of the recorded load" corresponds
// to factor 4.
func (d *Delta) ScaleDistances(factor float64) *Delta {
	if factor <= 0 {
		panic("curves: non-positive scale factor")
	}
	out := make([]simtime.Duration, len(d.Dist))
	for i, v := range d.Dist {
		out[i] = simtime.FromMicrosF(v.MicrosF() * factor)
	}
	return &Delta{Dist: out}
}

// DeltaFromTrace computes the tightest l-entry δ⁻ prefix of an event
// trace given as non-decreasing timestamps: Dist[i] is the minimum
// observed distance spanned by i+2 consecutive events. This is the batch
// equivalent of Appendix A's Algorithm 1.
func DeltaFromTrace(ts []simtime.Time, l int) (*Delta, error) {
	w, err := NewTraceWindow(l)
	if err != nil {
		return nil, err
	}
	w.Extend(ts)
	return w.finish(w.least) // w is dropped: finish its minima in place
}

// TraceWindow is DeltaFromTrace in extendable form: the raw per-window
// minima of the trace seen so far and its last l timestamps. Extending
// a window by ts and finishing it gives the same Delta, and the same
// error, as DeltaFromTrace over the concatenation of everything it was
// extended with — so a long shared trace prefix is scanned once and
// each continuation of it pays only for its own events.
type TraceWindow struct {
	n        int                // events seen
	least    []simtime.Duration // least[k-1]: least span of k+1 consecutive events (Infinity until seen)
	tail     []simtime.Time     // the last ≤ l events, oldest first
	unsorted bool               // a timestamp preceded its predecessor
}

// NewTraceWindow returns an empty l-entry trace window.
func NewTraceWindow(l int) (*TraceWindow, error) {
	if l <= 0 {
		return nil, errors.New("curves: l must be positive")
	}
	w := &TraceWindow{least: make([]simtime.Duration, l), tail: make([]simtime.Time, 0, l)}
	for i := range w.least {
		w.least[i] = simtime.Infinity
	}
	return w, nil
}

// Clone returns an independent copy of w, so a shared prefix window can
// be extended by many continuations.
func (w *TraceWindow) Clone() *TraceWindow {
	return &TraceWindow{
		n:        w.n,
		least:    append([]simtime.Duration(nil), w.least...),
		tail:     append(make([]simtime.Time, 0, cap(w.tail)), w.tail...),
		unsorted: w.unsorted,
	}
}

// Extend appends the events ts to the window's trace.
func (w *TraceWindow) Extend(ts []simtime.Time) {
	w.n += len(ts)
	if w.unsorted {
		return
	}
	least, tail := w.least, w.tail
	l := len(least)
	for j, t := range ts {
		if j == 0 && len(tail) > 0 && t < tail[len(tail)-1] || j > 0 && t < ts[j-1] {
			w.unsorted = true
			return
		}
	}
	// Spans of k+1 ≤ l+1 consecutive events: those that start in the
	// earlier tail and end in ts, then those within ts.
	for m, s := range tail {
		back := len(tail) - m // s lies back events before ts[0]
		for j := 0; j < len(ts) && back+j <= l; j++ {
			if d := ts[j].Sub(s); d < least[back+j-1] {
				least[back+j-1] = d
			}
		}
	}
	for i, s := range ts {
		for k := 1; k <= l && i+k < len(ts); k++ {
			if d := ts[i+k].Sub(s); d < least[k-1] {
				least[k-1] = d
			}
		}
	}
	if len(ts) >= l {
		w.tail = append(w.tail[:0], ts[len(ts)-l:]...)
		return
	}
	if drop := len(w.tail) + len(ts) - l; drop > 0 {
		w.tail = w.tail[:copy(w.tail, w.tail[drop:])]
	}
	w.tail = append(w.tail, ts...)
}

// Delta finishes the window: the tightest l-entry δ⁻ prefix of the
// trace seen so far. It does not consume w.
func (w *TraceWindow) Delta() (*Delta, error) {
	return w.finish(append([]simtime.Duration(nil), w.least...))
}

// finish turns dist, the window's per-window minima, into its δ⁻
// prefix, or reports why the trace has none.
func (w *TraceWindow) finish(dist []simtime.Duration) (*Delta, error) {
	if w.n < 2 {
		return nil, errors.New("curves: trace needs at least two events")
	}
	if w.unsorted {
		return nil, errors.New("curves: trace timestamps must be non-decreasing")
	}
	// Entries never observed (trace shorter than l+1 events) fall back
	// to the superadditive extension of the observed prefix.
	for i := range dist {
		if dist[i] == simtime.Infinity {
			dist[i] = dist[i-1]
		}
	}
	// Enforce monotonicity, which can be violated only by the fallback
	// above or a pathological trace with equal timestamps.
	for i := 1; i < len(dist); i++ {
		if dist[i] < dist[i-1] {
			dist[i] = dist[i-1]
		}
	}
	return &Delta{Dist: dist}, nil
}

// FitPJD derives a conservative PJD model from a concrete event trace:
// the period is the mean interarrival distance, dmin the minimum
// observed distance, and the jitter the largest deviation of any
// timestamp from the best-fitting periodic grid. The returned model
// admits the trace: δ⁻_model(q) ≤ every observed q-event span.
func FitPJD(ts []simtime.Time, maxQ int64) (PJD, error) {
	if len(ts) < 2 {
		return PJD{}, errors.New("curves: FitPJD needs at least two events")
	}
	n := int64(len(ts))
	span := ts[n-1].Sub(ts[0])
	if span <= 0 {
		return PJD{}, errors.New("curves: FitPJD needs a positive trace span")
	}
	period := simtime.Duration(int64(span) / (n - 1))
	if period <= 0 {
		period = 1
	}
	dmin := simtime.Infinity
	for i := 1; i < len(ts); i++ {
		if d := ts[i].Sub(ts[i-1]); d < dmin {
			dmin = d
		}
	}
	if dmin > period {
		dmin = period
	}
	if dmin < 1 {
		dmin = 1
	}
	// Jitter: the amount the periodic lower bound must be relaxed so
	// that δ⁻(q) = (q−1)·P − J admits every observed q-span.
	var jitter simtime.Duration
	for q := int64(2); q <= maxQ; q++ {
		for i := int64(0); i+q-1 < n; i++ {
			observed := ts[i+q-1].Sub(ts[i])
			lower := simtime.Duration(q-1) * period
			if need := lower - observed; need > jitter {
				jitter = need
			}
		}
	}
	m := PJD{Period: period, Jitter: jitter, DMin: dmin}
	if err := m.Validate(); err != nil {
		return PJD{}, err
	}
	return m, nil
}

// Admits reports whether the model admits the concrete trace: every
// observed q-event span (q up to maxQ) is at least δ⁻(q).
func Admits(m Model, ts []simtime.Time, maxQ int64) bool {
	n := int64(len(ts))
	for q := int64(2); q <= maxQ && q <= n; q++ {
		for i := int64(0); i+q-1 < n; i++ {
			if ts[i+q-1].Sub(ts[i]) < m.DeltaMin(q) {
				return false
			}
		}
	}
	return true
}

// Utilization returns the long-term event rate admitted by a model in
// events per second, estimated from δ⁻ at a large q. For a PJD model this
// converges to 1/Period; for a monitored δ⁻ prefix it is the admitted
// load's rate.
func Utilization(m Model, q int64) float64 {
	d := m.DeltaMin(q)
	if d <= 0 {
		return 0
	}
	return float64(q-1) / (float64(d) / float64(simtime.ClockHz))
}

// CheckModel verifies the defining properties of an event model over a
// range of q and Δt values: δ⁻ non-decreasing with δ⁻(q≤1) = 0, η⁺
// non-decreasing, and mutual consistency η⁺(δ⁻(q)) ≥ q.
func CheckModel(m Model, maxQ int64, maxDt simtime.Duration) error {
	if m.DeltaMin(0) != 0 || m.DeltaMin(1) != 0 {
		return errors.New("curves: δ⁻(0) and δ⁻(1) must be 0")
	}
	prev := simtime.Duration(0)
	for q := int64(2); q <= maxQ; q++ {
		d := m.DeltaMin(q)
		if d < prev {
			return fmt.Errorf("curves: δ⁻ decreasing at q=%d (%v < %v)", q, d, prev)
		}
		if m.EtaPlus(d) < q {
			return fmt.Errorf("curves: η⁺(δ⁻(%d)) = %d < %d", q, m.EtaPlus(d), q)
		}
		prev = d
	}
	prevN := int64(-1)
	step := maxDt / 64
	if step <= 0 {
		step = 1
	}
	for dt := simtime.Duration(0); dt <= maxDt; dt += step {
		n := m.EtaPlus(dt)
		if n < prevN {
			return fmt.Errorf("curves: η⁺ decreasing at Δt=%v", dt)
		}
		prevN = n
	}
	return nil
}
