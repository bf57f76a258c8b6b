package diffuzz

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/curves"
	"repro/internal/engine"
	"repro/internal/hv"
	"repro/internal/simtime"
)

// Plant names the deliberately-planted analysis bugs the smoke harness
// uses to prove the fuzzer catches real unsoundness. Planting never
// touches internal/analysis — the bug lives in the checker's choice of
// bound, so production bounds stay correct while the self-test runs.
const (
	// PlantNone checks against the real bounds.
	PlantNone = ""
	// PlantDropBlocking drops the interposed-interference blocking term
	// (the eq. (14) budget I(Δt) folded into eq. (11)) from every victim
	// bound — the classic "forgot one blocking term" analysis bug: the
	// bound is correct for an isolated victim but ignores the slot time
	// monitored foreign sources may legally steal.
	PlantDropBlocking = "drop-blocking"
)

// Options parameterise a differential check.
type Options struct {
	// Plant selects a deliberately unsound bound (see Plant*).
	Plant string
}

// Validate rejects unknown plant names.
func (o Options) Validate() error {
	if o.Plant != PlantNone && o.Plant != PlantDropBlocking {
		return fmt.Errorf("diffuzz: unknown plant %q", o.Plant)
	}
	return nil
}

// Outcome is the result of one differential check.
type Outcome struct {
	Class  string
	Seed   uint64
	Events int

	// Scenario shape.
	Sources    int
	Partitions int
	Tasks      int

	// Invalid marks scenarios the analysis rejected as malformed
	// (typed analysis.ErrInvalidSystem) — counted separately from
	// violations; a generated spec reaching this state is a generator
	// bug, a minimizer-mutated spec reaching it just cancels the step.
	Invalid       bool
	InvalidReason string

	// Simulation summary.
	Grants          uint64
	DeniedViolation uint64

	// Whole-run eq. (14) admission agreement: measured worst foreign
	// interference vs the analytic budget over the full run.
	Interference simtime.Duration
	Budget       simtime.Duration

	// Bound tightness over checked victims: gap = bound − observed
	// worst latency, per victim; Min/Sum fold over GapCount victims.
	GapCount int
	MinGap   simtime.Duration
	SumGap   simtime.Duration

	// BoundNotes records victims whose analytic bound was declined
	// (e.g. unbounded busy window): those latency checks are skipped.
	BoundNotes []string

	// Oracle is the full verdict; OK is its summary.
	Oracle hv.OracleReport
	OK     bool
	// Fingerprint is the content address of the checked scenario,
	// filled when the oracle found a violation.
	Fingerprint string
}

// Violation returns the first offending event, or nil.
func (o *Outcome) Violation() *hv.OracleViolation {
	if len(o.Oracle.Violations) == 0 {
		return nil
	}
	return &o.Oracle.Violations[0]
}

// CheckSeed generates the (class, seed) scenario and differentially
// checks it inside the caller's arena.
func CheckSeed(a *engine.SimArena, class string, seed uint64, events int, opt Options) (Outcome, error) {
	spec, err := Generate(class, seed, events)
	if err != nil {
		return Outcome{}, err
	}
	return CheckSpec(a, spec, opt)
}

// CheckSpec runs one differential check: materialize, simulate under
// the eq. (14) oracle, compute per-victim analytic bounds, and judge.
func CheckSpec(a *engine.SimArena, spec SystemSpec, opt Options) (Outcome, error) {
	if err := opt.Validate(); err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Class:      spec.Class,
		Seed:       spec.Seed,
		Events:     spec.Events,
		Sources:    len(spec.Srcs),
		Partitions: len(spec.Parts),
		Tasks:      spec.Tasks(),
	}
	sc, err := spec.Scenario()
	if err != nil {
		out.Invalid = true
		out.InvalidReason = err.Error()
		out.OK = true
		return out, nil
	}
	sys, err := a.Build(sc)
	if err != nil {
		if errors.Is(err, analysis.ErrInvalidSystem) {
			out.Invalid = true
			out.InvalidReason = err.Error()
			out.OK = true
			return out, nil
		}
		return out, fmt.Errorf("diffuzz: build %s/%d: %w", spec.Class, spec.Seed, err)
	}
	budget := interferenceBudget(sc, sys)
	sys.InstallOracle(budget)

	if err := sys.RunToCompletion(core.Horizon(sc)); err != nil {
		return out, fmt.Errorf("diffuzz: run %s/%d: %w", spec.Class, spec.Seed, err)
	}
	if err := sys.CheckInvariants(); err != nil {
		return out, fmt.Errorf("diffuzz: invariants %s/%d: %w", spec.Class, spec.Seed, err)
	}
	out.Grants = sys.Stats().InterposedGrants
	out.DeniedViolation = sys.Stats().DeniedViolation

	// Whole-run admission agreement: worst foreign interposed steal on
	// any partition that hosts an unmonitored source vs its budget.
	elapsed := sys.Now().Sub(0)
	for _, p := range sys.Partitions() {
		if !hostsMonitored(spec, p.Index) {
			if p.StolenInterposed > out.Interference {
				out.Interference = p.StolenInterposed
			}
			if b := budget(p.Index, elapsed); b > out.Budget {
				out.Budget = b
			}
		}
	}

	// Per-victim latency bounds. A victim is checkable when it is
	// unmonitored and the sole source of its partition — the eq. (11)
	// busy window models no same-queue competitors.
	bounds := map[int]simtime.Duration{}
	for i, q := range spec.Srcs {
		if q.Monitored() || !soleSource(spec, i) || len(q.Arrivals) < 2 {
			continue
		}
		victimModel, err := curves.DeltaFromTrace(q.Arrivals, 16)
		if err != nil {
			out.BoundNotes = append(out.BoundNotes, fmt.Sprintf("%s trace: %v", q.Name, err))
			continue
		}
		extra := func(dt simtime.Duration) simtime.Duration { return budget(q.Partition, dt) }
		rt, err := victimBound(sc, spec, i, victimModel, extra, opt.Plant, boundHorizon(sc))
		if err != nil {
			out.BoundNotes = append(out.BoundNotes, fmt.Sprintf("%s bound: %v", q.Name, err))
			continue
		}
		bounds[i] = rt.WCRT
	}

	// Observed worst latency per bounded victim; tightness gap folds.
	observed := map[int]simtime.Duration{}
	//reprolint:allow arenaretain latency scan completes inside this check, before the caller's arena is reused
	for _, r := range sys.Log().Records {
		if _, ok := bounds[r.Source]; ok {
			if lat := r.Done.Sub(r.Arrival); lat > observed[r.Source] {
				observed[r.Source] = lat
			}
		}
	}
	for i := range spec.Srcs {
		b, ok := bounds[i]
		if !ok {
			continue
		}
		gap := b - observed[i]
		if out.GapCount == 0 || gap < out.MinGap {
			out.MinGap = gap
		}
		out.SumGap += gap
		out.GapCount++
	}

	out.Oracle = sys.CheckTemporalIndependence(bounds)
	out.OK = out.Oracle.OK()
	if !out.OK {
		fp, err := core.Fingerprint(sc)
		if err != nil {
			fp = fmt.Sprintf("unavailable: %v", err)
		}
		out.Fingerprint = fp
	}
	return out, nil
}

// hostsMonitored reports whether partition pi subscribes a monitored
// source (whose own interposed grants are load, not interference).
func hostsMonitored(spec SystemSpec, pi int) bool {
	for _, q := range spec.Srcs {
		if q.Partition == pi && q.Monitored() {
			return true
		}
	}
	return false
}

// soleSource reports whether source i is the only source subscribed by
// its partition.
func soleSource(spec SystemSpec, i int) bool {
	for j, q := range spec.Srcs {
		if j != i && q.Partition == spec.Srcs[i].Partition {
			return false
		}
	}
	return true
}

// boundHorizon returns the busy-window horizon for fuzz bounds: a small
// multiple of the simulated span rather than analysis.DefaultHorizon
// (one hour), so overloaded random systems fail fast as BoundNotes
// instead of crawling the fixed point for millions of iterations. Any
// true bound beyond this horizon could never be witnessed by the run
// anyway.
func boundHorizon(sc core.Scenario) simtime.Duration {
	var last simtime.Time
	for _, q := range sc.IRQs {
		if n := len(q.Arrivals); n > 0 && q.Arrivals[n-1] > last {
			last = q.Arrivals[n-1]
		}
	}
	return 2*last.Sub(0) + 32*sc.CycleLength()
}

// victimBound computes the victim's analytic delayed-handling bound —
// the multi-window variant when the spec carries a window schedule —
// optionally with a planted unsoundness (see Plant*).
func victimBound(sc core.Scenario, spec SystemSpec, idx int, model curves.Model, extra analysis.Interference, plant string, horizon simtime.Duration) (analysis.ResponseTimeResult, error) {
	if plant == PlantDropBlocking {
		// The planted bug: same bound, eq. (14) blocking term dropped.
		// With at least one monitored foreign source earning grants, the
		// result is genuinely below the true worst case, the simulation
		// beats it, and the oracle fires.
		extra = nil
	}
	if len(spec.Windows) > 0 {
		return core.ScheduleBoundUnderHorizon(sc, idx, model, extra, horizon)
	}
	return core.ClassicBoundUnderHorizon(sc, idx, model, extra, horizon)
}

// interferenceBudget builds the oracle's eq. (14) budget, mirroring the
// chaos campaign: for each victim partition, the summed conditions of
// monitored single-subscriber sources subscribed elsewhere.
func interferenceBudget(sc core.Scenario, sys *hv.System) hv.InterferenceBudget {
	costs := sc.CostModel()
	srcs := sys.Sources()
	return func(victim int, dt simtime.Duration) simtime.Duration {
		var total simtime.Duration
		for _, src := range srcs {
			if src.Monitor == nil || len(src.Subscribers) != 1 || src.Subscribers[0] == victim {
				continue
			}
			cond := src.Monitor.Condition()
			if cond == nil {
				continue // still learning: interposing is denied
			}
			total += analysis.InterposedInterferenceDelta(dt, cond, costs, src.CBH+costs.QueuePop)
		}
		return total
	}
}
