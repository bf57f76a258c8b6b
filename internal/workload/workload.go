// Package workload generates the IRQ arrival streams of the paper's
// evaluation. Following §6.1, every stream is pre-generated as a distance
// array (interarrival times) before the simulation runs, so arrival
// generation adds no overhead inside the simulated top handler.
package workload

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// Exponential returns n interarrival distances drawn from an exponential
// distribution with the given mean λ (§6.1, scenarios 1 and 2). Distances
// are rounded to whole cycles and floored at one cycle.
func Exponential(src *rng.Source, mean simtime.Duration, n int) []simtime.Duration {
	if mean <= 0 {
		panic("workload: non-positive mean interarrival time")
	}
	out := make([]simtime.Duration, n)
	for i := range out {
		d := simtime.Duration(math.Round(src.Exp(float64(mean))))
		if d < 1 {
			d = 1
		}
		out[i] = d
	}
	return out
}

// ExponentialClamped returns n exponential interarrival distances clamped
// from below to dmin, so the stream always satisfies the l = 1 monitoring
// condition (§6.1, scenario 3: "the pseudo-random interarrival time is
// set at least to dmin").
func ExponentialClamped(src *rng.Source, mean, dmin simtime.Duration, n int) []simtime.Duration {
	out := Exponential(src, mean, n)
	for i, d := range out {
		if d < dmin {
			out[i] = dmin
		}
	}
	return out
}

// PeriodicJitter returns n interarrival-free absolute release times of a
// periodic stream with release jitter drawn uniformly from [0, jitter],
// starting at offset.
func PeriodicJitter(src *rng.Source, period, jitter, offset simtime.Duration, n int) []simtime.Time {
	out := make([]simtime.Time, n)
	for i := range out {
		t := simtime.Time(offset) + simtime.Time(int64(i)*int64(period))
		if jitter > 0 {
			t = t.Add(simtime.Duration(src.Int63n(int64(jitter) + 1)))
		}
		out[i] = t
	}
	return out
}

// Distances converts sorted absolute timestamps to an interarrival
// distance array whose first entry is the offset of the first event from
// time zero.
func Distances(ts []simtime.Time) []simtime.Duration {
	out := make([]simtime.Duration, len(ts))
	prev := simtime.Time(0)
	for i, t := range ts {
		out[i] = t.Sub(prev)
		prev = t
	}
	return out
}

// Timestamps converts a distance array to absolute timestamps starting
// from time zero.
func Timestamps(dist []simtime.Duration) []simtime.Time {
	out := make([]simtime.Time, len(dist))
	t := simtime.Time(0)
	for i, d := range dist {
		t = t.Add(d)
		out[i] = t
	}
	return out
}

// Merge merges several sorted timestamp streams into one sorted stream.
func Merge(streams ...[]simtime.Time) []simtime.Time {
	var total int
	for _, s := range streams {
		total += len(s)
	}
	out := make([]simtime.Time, 0, total)
	for _, s := range streams {
		out = append(out, s...)
	}
	slices.Sort(out)
	return out
}

// ECUConfig parameterises the synthetic automotive activation trace used
// in place of the paper's proprietary ECU measurement (Appendix A).
type ECUConfig struct {
	// Events is the approximate number of activations to produce
	// (the paper's trace has ~11000).
	Events int
	// Seed selects the deterministic random stream.
	Seed uint64
}

// DefaultECU matches the scale of the paper's trace.
func DefaultECU() ECUConfig { return ECUConfig{Events: 11000, Seed: 0xEC00A5A5} }

// ECUTrace synthesises a task-activation trace with the structure of an
// automotive engine ECU:
//
//   - time-triggered tasks at 5/10/20 ms with small release jitter
//     (the classic OSEK time-triggered set),
//   - a crank-synchronous task whose period follows an RPM profile
//     sweeping idle → high load → idle (two activations per revolution),
//   - sporadic communication events (CAN receive) in occasional bursts.
//
// The result is bursty and non-Poisson with a learnable δ⁻ prefix, the
// properties Appendix A's experiment depends on. The trace is truncated
// to cfg.Events activations.
func ECUTrace(cfg ECUConfig) ([]simtime.Time, error) {
	if cfg.Events < 100 {
		return nil, errors.New("workload: ECU trace needs at least 100 events")
	}
	src := rng.New(cfg.Seed)

	// Estimate the horizon needed for the requested event count.
	// Rates: 200/s + 100/s + 50/s time-triggered, ~100/s crank at mid
	// RPM, ~30/s sporadic ≈ 480 events/s.
	horizon := simtime.Duration(float64(cfg.Events)/480.0*float64(simtime.Second)) * 2

	nOf := func(period simtime.Duration) int {
		return int(int64(horizon)/int64(period)) + 1
	}

	tt5 := PeriodicJitter(src, 5*simtime.Millisecond, 100*simtime.Microsecond, 0, nOf(5*simtime.Millisecond))
	tt10 := PeriodicJitter(src, 10*simtime.Millisecond, 200*simtime.Microsecond, simtime.Micros(1300), nOf(10*simtime.Millisecond))
	tt20 := PeriodicJitter(src, 20*simtime.Millisecond, 200*simtime.Microsecond, simtime.Micros(2700), nOf(20*simtime.Millisecond))

	// Crank-synchronous task: RPM profile 900 → 5400 → 900 over the
	// horizon (sinusoidal ramp), two activations per revolution.
	var crank []simtime.Time
	t := simtime.Time(simtime.Micros(500))
	for t < simtime.Time(horizon) {
		frac := float64(t) / float64(horizon)
		rpm := 900 + (5400-900)*math.Sin(frac*math.Pi)
		// Two activations per revolution: period = 60/(2·rpm) seconds.
		period := simtime.FromMicrosF(60e6 / (2 * rpm))
		// Small combustion-cycle jitter.
		j := simtime.Duration(src.Int63n(int64(period/50) + 1))
		crank = append(crank, t.Add(j))
		t = t.Add(period)
	}

	// Sporadic CAN events: bursts of 2–5 frames with 150–400 µs
	// spacing, burst starts exponentially distributed at ~25/s.
	var can []simtime.Time
	t = simtime.Time(simtime.Micros(900))
	for t < simtime.Time(horizon) {
		gap := simtime.Duration(src.Exp(float64(40 * simtime.Millisecond)))
		if gap < simtime.Millisecond {
			gap = simtime.Millisecond
		}
		t = t.Add(gap)
		burst := 2 + src.Intn(4)
		bt := t
		for b := 0; b < burst && bt < simtime.Time(horizon); b++ {
			can = append(can, bt)
			bt = bt.Add(simtime.Micros(150) + simtime.Duration(src.Int63n(int64(simtime.Micros(250)))))
		}
	}

	all := Merge(tt5, tt10, tt20, crank, can)
	if len(all) < cfg.Events {
		return nil, fmt.Errorf("workload: synthesised only %d events, want %d", len(all), cfg.Events)
	}
	all = all[:cfg.Events]
	// Guarantee strictly increasing timestamps (merged streams can
	// collide at cycle resolution).
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			all[i] = all[i-1] + 1
		}
	}
	return all, nil
}

// Stats summarises a distance array.
type Stats struct {
	N          int
	Mean       simtime.Duration
	Min        simtime.Duration
	Max        simtime.Duration
	BelowCount int // entries strictly below the reference distance
}

// Describe computes summary statistics of a distance array; ref counts
// how many distances fall below a reference (e.g. dmin).
func Describe(dist []simtime.Duration, ref simtime.Duration) Stats {
	s := Stats{N: len(dist)}
	if len(dist) == 0 {
		return s
	}
	s.Min = dist[0]
	var sum int64
	for _, d := range dist {
		sum += int64(d)
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		if d < ref {
			s.BelowCount++
		}
	}
	s.Mean = simtime.Duration(sum / int64(len(dist)))
	return s
}
