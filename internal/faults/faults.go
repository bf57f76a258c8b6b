// Package faults is the adversarial counterpart of internal/workload:
// a registry of deterministic, seed-reproducible fault models that
// generate hostile IRQ arrival streams for chaos campaigns. Where
// workload produces the well-behaved streams of §6.1, faults produces
// the misbehaving sources the paper's defense mechanism exists for —
// babbling idiots, drifting clocks, trace-buffer attacks, flaky lines
// and sources that turn hostile after the monitor's learning phase.
//
// Every model is a pure function of (rng stream, Params): no global
// state, no wall clock, so a campaign run is reproducible from its
// (fault, intensity, seed) triple alone — the precondition for the
// minimal reproducers the oracle emits (see campaign.go).
//
// Intensity semantics: 0 is the most benign variant of the fault and 1
// the most aggressive; every model degrades monotonically in between.
// Even at intensity 0 a model may violate its monitoring condition —
// the point of the registry is that the δ⁻ monitor, not the workload,
// is what keeps interference bounded.
package faults

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/curves"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// Params parameterises one adversarial stream.
type Params struct {
	// DMin is δ⁻[0] of the monitoring condition under attack: the
	// minimum distance the monitor will enforce between grants.
	DMin simtime.Duration
	// Condition optionally gives the full l-entry condition; models
	// that attack the trace buffer (burst-after-silence) shape their
	// bursts against it. Nil falls back to an l = 1 condition of DMin.
	Condition *curves.Delta
	// Events is the number of arrivals to generate. Models that
	// simulate a dying line (stuck-line) may emit fewer.
	Events int
	// Intensity in [0, 1] scales aggressiveness (see package comment).
	Intensity float64
	// BenignEvents is the length of the well-behaved prefix for models
	// that flip mid-run (mode-flip): the attacker conforms for this
	// many arrivals — long enough to cover a monitor's learning phase —
	// then turns hostile.
	BenignEvents int
}

// cond returns the effective monitoring condition.
func (p Params) cond() *curves.Delta {
	if p.Condition != nil {
		return p.Condition
	}
	d, err := curves.NewDelta([]simtime.Duration{p.DMin})
	if err != nil {
		panic(fmt.Sprintf("faults: invalid dmin %v: %v", p.DMin, err))
	}
	return d
}

// Model is one named fault model. Arrivals must be deterministic given
// the rng stream and params, and must return sorted timestamps.
type Model interface {
	Name() string
	// Describe returns a one-line description for reports and -faults
	// listings.
	Describe() string
	// Arrivals generates the adversarial stream.
	Arrivals(src *rng.Source, p Params) []simtime.Time
}

// models is the registry, in stable report order.
var models = []Model{
	babblingIdiot{},
	jitterDrift{},
	burstAfterSilence{},
	stuckLine{},
	modeFlip{},
}

// Models returns the registered fault models in stable order.
func Models() []Model { return append([]Model(nil), models...) }

// Names returns the registered model names in stable order.
func Names() []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.Name()
	}
	return out
}

// Lookup resolves a model by name.
func Lookup(name string) (Model, bool) {
	for _, m := range models {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

// scale interpolates linearly between lo (intensity 0) and hi
// (intensity 1), clamping intensity into [0, 1].
func scale(lo, hi float64, intensity float64) float64 {
	if intensity < 0 {
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	return lo + (hi-lo)*intensity
}

// clampDur floors a duration at one cycle: simultaneous arrivals on one
// line would just be lost at the non-counting controller anyway.
func clampDur(d simtime.Duration) simtime.Duration {
	if d < 1 {
		return 1
	}
	return d
}

// babblingIdiot emits sustained bursts far below dmin — the canonical
// misbehaving partition of the temporal-independence claim. Burst size
// grows with intensity; intra-burst spacing is a small fraction of dmin
// so (nearly) every burst event violates the monitoring condition.
type babblingIdiot struct{}

func (babblingIdiot) Name() string { return "babbling-idiot" }
func (babblingIdiot) Describe() string {
	return "sustained bursts at a fraction of dmin (classic babbling-idiot failure)"
}

func (babblingIdiot) Arrivals(src *rng.Source, p Params) []simtime.Time {
	burst := 2 + int(math.Round(scale(2, 14, p.Intensity)))
	gap := simtime.Duration(scale(2, 1, p.Intensity) * float64(p.DMin))
	intra := clampDur(p.DMin / 16)
	out := make([]simtime.Time, 0, p.Events)
	t := simtime.Time(clampDur(p.DMin / 4))
	for len(out) < p.Events {
		for b := 0; b < burst && len(out) < p.Events; b++ {
			out = append(out, t)
			t = t.Add(intra)
		}
		// Jittered inter-burst gap: bursts must not phase-lock with
		// the TDMA grid, or the stream only ever attacks one slot.
		t = t.Add(gap + simtime.Duration(src.Int63n(int64(p.DMin))))
	}
	return out
}

// jitterDrift models a degrading periodic source: nominally conforming
// (period above dmin) but with growing duty-cycle jitter and a slow
// clock drift that compresses the period over the run until pairs of
// arrivals violate dmin.
type jitterDrift struct{}

func (jitterDrift) Name() string { return "jitter-drift" }
func (jitterDrift) Describe() string {
	return "periodic source with duty-cycle jitter and clock drift compressing below dmin"
}

func (jitterDrift) Arrivals(src *rng.Source, p Params) []simtime.Time {
	if p.Events <= 0 {
		return nil
	}
	start := 1.25 * float64(p.DMin)
	end := scale(1.25, 0.4, p.Intensity) * float64(p.DMin)
	jitter := scale(0.05, 0.6, p.Intensity) * float64(p.DMin)
	out := make([]simtime.Time, 0, p.Events)
	t := simtime.Time(clampDur(p.DMin / 2))
	for i := 0; i < p.Events; i++ {
		// Linear drift of the nominal period across the run.
		frac := float64(i) / float64(p.Events)
		period := start + (end-start)*frac
		// Jitter is uniform in ±jitter/2 around the nominal release.
		j := (src.Float64() - 0.5) * jitter
		d := clampDur(simtime.Duration(math.Round(period + j)))
		t = t.Add(d)
		out = append(out, t)
	}
	return out
}

// burstAfterSilence attacks the l-entry δ⁻ trace buffer: after a long
// silence the buffer only holds stale grants, so a run of events can be
// admitted back to back. The model emits exactly such trains — silences
// beyond δ⁻[l−1] followed by bursts spaced around δ⁻[0] — tightening
// below the condition as intensity grows.
type burstAfterSilence struct{}

func (burstAfterSilence) Name() string { return "burst-after-silence" }
func (burstAfterSilence) Describe() string {
	return "correlated silence-then-burst trains shaped against the l-entry trace buffer"
}

func (burstAfterSilence) Arrivals(src *rng.Source, p Params) []simtime.Time {
	cond := p.cond()
	l := cond.Len()
	dmax := cond.Dist[l-1]
	// Burst spacing shrinks from exactly δ⁻[0] (legal) to δ⁻[0]/4.
	spacing := clampDur(simtime.Duration(scale(1.0, 0.25, p.Intensity) * float64(cond.Dist[0])))
	burst := 2 * (l + 1)
	out := make([]simtime.Time, 0, p.Events)
	t := simtime.Time(clampDur(simtime.Duration(dmax)))
	for len(out) < p.Events {
		for b := 0; b < burst && len(out) < p.Events; b++ {
			out = append(out, t)
			t = t.Add(spacing)
		}
		// Silence long enough to age every trace-buffer entry out.
		silence := 2*dmax + simtime.Duration(src.Int63n(int64(dmax)))
		t = t.Add(silence)
	}
	return out
}

// stuckLine models a flaky interrupt line: a benign stream that loses
// random arrivals (dropped edges) and eventually sticks — goes
// permanently silent partway through the run. The oracle must hold
// trivially; the robustness target is the machinery around it (empty
// tails, short streams, zero-grant runs).
type stuckLine struct{}

func (stuckLine) Name() string { return "stuck-line" }
func (stuckLine) Describe() string {
	return "benign stream with randomly lost edges that goes permanently silent mid-run"
}

func (stuckLine) Arrivals(src *rng.Source, p Params) []simtime.Time {
	if p.Events <= 0 {
		return nil
	}
	dropProb := scale(0, 0.5, p.Intensity)
	alive := p.Events - int(math.Round(scale(0, 0.8, p.Intensity)*float64(p.Events)))
	if alive < 1 {
		alive = 1
	}
	mean := 1.5 * float64(p.DMin)
	out := make([]simtime.Time, 0, alive)
	t := simtime.Time(0)
	for i := 0; i < p.Events && len(out) < alive; i++ {
		d := clampDur(simtime.Duration(math.Round(src.Exp(mean))))
		if d < p.DMin {
			d = p.DMin
		}
		t = t.Add(d)
		if src.Float64() < dropProb {
			continue // edge lost before the controller latched it
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		out = append(out, simtime.Time(clampDur(p.DMin)))
	}
	return out
}

// modeFlip is the insider threat: a source that behaves during the
// monitor's learning phase — a clean sporadic pattern Algorithm 1 will
// happily learn — and turns into a babbling idiot the moment the
// learning window closes. The lifted condition (Algorithm 2) is what
// keeps the hostile phase bounded.
type modeFlip struct{}

func (modeFlip) Name() string { return "mode-flip" }
func (modeFlip) Describe() string {
	return "conforming during the learning phase, babbling-idiot bursts afterwards"
}

func (modeFlip) Arrivals(src *rng.Source, p Params) []simtime.Time {
	benign := p.BenignEvents
	if benign <= 0 {
		benign = p.Events / 3
	}
	if benign > p.Events {
		benign = p.Events
	}
	out := make([]simtime.Time, 0, p.Events)
	t := simtime.Time(clampDur(p.DMin))
	for i := 0; i < benign; i++ {
		d := p.DMin + simtime.Duration(math.Round(src.Exp(0.5*float64(p.DMin))))
		t = t.Add(clampDur(d))
		out = append(out, t)
	}
	// Hostile phase: dense bursts like babbling-idiot, scaled by
	// intensity.
	burst := 2 + int(math.Round(scale(2, 12, p.Intensity)))
	intra := clampDur(p.DMin / 12)
	for len(out) < p.Events {
		for b := 0; b < burst && len(out) < p.Events; b++ {
			t = t.Add(intra)
			out = append(out, t)
		}
		t = t.Add(p.DMin + simtime.Duration(src.Int63n(int64(p.DMin))))
	}
	return out
}

// Wrap superimposes a fault model's adversarial stream onto an existing
// benign arrival stream (merging and re-sorting): the idiom for
// injecting a fault into one source of a larger scenario without
// replacing its nominal workload.
func Wrap(base []simtime.Time, m Model, src *rng.Source, p Params) []simtime.Time {
	adv := m.Arrivals(src, p)
	out := make([]simtime.Time, 0, len(base)+len(adv))
	out = append(out, base...)
	out = append(out, adv...)
	slices.Sort(out)
	// Nudge exact collisions apart by one cycle: the engine and the
	// monitor both require strictly increasing arrival times.
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			out[i] = out[i-1].Add(1)
		}
	}
	return out
}
