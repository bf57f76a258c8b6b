package campaign

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/arm"
	"repro/internal/core"
	"repro/internal/curves"
	"repro/internal/diffuzz"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/hv"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/tracerec"
	"repro/internal/workload"
)

// Cell scenario constants: the paper's §6.1 reference system, matching
// the internal/faults chaos campaign. Every cell in a campaign runs
// this platform; only the arrival streams differ, which is what lets
// all cells sharing (PrefixSeed, PrefixEvents) fork from one warm
// snapshot — the scenario the snapshot was built for is identical.
const (
	slotApp1Us         = 6000 // attacker partition slot
	slotApp2Us         = 6000 // victim partition slot
	slotHousekeepingUs = 2000
	attackerDMinUs     = 1344 // the paper's l = 1 monitoring condition
	handlerCTHUs       = 6
	handlerCBHUs       = 30
	victimMeanUs       = 2500 // benign victim interarrival mean
	victimDMinUs       = 500  // benign victim clamp
	// suffixLeadUs separates the fork point from the first suffix
	// arrival, so suffixes never precede the snapshot clock.
	suffixLeadUs = 500
)

// Actor indices in the cell scenario (IRQ index == partition index).
const (
	cellAttacker = 0
	cellVictim   = 1
)

// Stream ids: the prefix draws from PrefixSeed so every cell of a
// campaign shares it bit for bit; the suffix draws from the cell Seed.
const (
	streamPrefixAttacker = 0
	streamPrefixVictim   = 1
	streamSuffixAttacker = 2
	streamSuffixVictim   = 3
)

// CellSpec is one campaign cell as a standalone computation document —
// the unit that is journaled, content-addressed and deduped by the
// serve tier. All fields are explicit (campaign expansion fills them),
// so the same document always names the same simulation.
type CellSpec struct {
	// Kind and the diffuzz axes mirror Spec.Kind: the zero Kind is a
	// chaos cell (all new fields omitted, so pre-existing cell documents
	// keep their content addresses bit for bit).
	Kind   string `json:"kind,omitempty"`
	Class  string `json:"class,omitempty"`
	Events int    `json:"events,omitempty"`

	Fault        string  `json:"fault"`
	Intensity    float64 `json:"intensity"`
	Seed         uint64  `json:"seed"`
	PrefixSeed   uint64  `json:"prefix_seed"`
	PrefixEvents int     `json:"prefix_events"`
	SuffixEvents int     `json:"suffix_events"`
}

// Validate rejects documents outside the cell grammar.
func (cs CellSpec) Validate() error {
	switch cs.Kind {
	case KindDiffuzz:
		if !diffuzz.ValidClass(cs.Class) {
			return fmt.Errorf("campaign: unknown scenario class %q (have %v)", cs.Class, diffuzz.Classes())
		}
		if cs.Events < 2 || cs.Events > diffuzz.MaxEvents {
			return fmt.Errorf("campaign: events %d outside [2, %d]", cs.Events, diffuzz.MaxEvents)
		}
		if cs.Fault != "" || cs.Intensity != 0 || cs.PrefixSeed != 0 || cs.PrefixEvents != 0 || cs.SuffixEvents != 0 {
			return fmt.Errorf("campaign: chaos-sweep fields must stay zero in a diffuzz cell")
		}
		return nil
	case KindChaos:
	default:
		return fmt.Errorf("campaign: unknown cell kind %q", cs.Kind)
	}
	if cs.Class != "" || cs.Events != 0 {
		return fmt.Errorf("campaign: class/events are diffuzz-cell fields")
	}
	if _, ok := faults.Lookup(cs.Fault); !ok {
		return fmt.Errorf("campaign: unknown fault model %q (have %v)", cs.Fault, faults.Names())
	}
	if cs.Intensity < 0 || cs.Intensity > 1 {
		return fmt.Errorf("campaign: intensity %g outside [0, 1]", cs.Intensity)
	}
	if cs.PrefixEvents < 2 || cs.PrefixEvents > MaxEvents {
		return fmt.Errorf("campaign: prefix events %d outside [2, %d]", cs.PrefixEvents, MaxEvents)
	}
	if cs.SuffixEvents < 1 || cs.SuffixEvents > MaxEvents {
		return fmt.Errorf("campaign: suffix events %d outside [1, %d]", cs.SuffixEvents, MaxEvents)
	}
	return nil
}

// GroupKey names the warm-prefix group: cells with equal keys share the
// prefix scenario byte for byte and may fork from one snapshot. Diffuzz
// cells share no prefix — every cell is its own scenario — and run cold
// in the worker's arena.
func (cs CellSpec) GroupKey() string {
	if cs.Kind == KindDiffuzz {
		return "diffuzz"
	}
	return fmt.Sprintf("prefix/%d/%d", cs.PrefixSeed, cs.PrefixEvents)
}

// prefixScenario builds the shared warm prefix: the reference platform
// with benign, conforming streams on both sources. It depends only on
// (PrefixSeed, PrefixEvents) — the GroupKey.
func prefixScenario(prefixSeed uint64, prefixEvents int) core.Scenario {
	us := simtime.Micros
	dmin := us(attackerDMinUs)
	asrc := rng.NewStream(prefixSeed, streamPrefixAttacker)
	vsrc := rng.NewStream(prefixSeed, streamPrefixVictim)
	return core.Scenario{
		Partitions: []core.PartitionSpec{
			{Name: "app1", Slot: us(slotApp1Us)},
			{Name: "app2", Slot: us(slotApp2Us)},
			{Name: "housekeeping", Slot: us(slotHousekeepingUs)},
		},
		IRQs: []core.IRQSpec{
			{
				Name: "attacker", Partition: cellAttacker,
				CTH: us(handlerCTHUs), CBH: us(handlerCBHUs),
				DMin:     dmin,
				Arrivals: workload.Timestamps(workload.ExponentialClamped(asrc, 2*dmin, dmin, prefixEvents)),
			},
			{
				Name: "victim", Partition: cellVictim,
				CTH: us(handlerCTHUs), CBH: us(handlerCBHUs),
				Arrivals: workload.Timestamps(workload.ExponentialClamped(vsrc, us(victimMeanUs), us(victimDMinUs), prefixEvents)),
			},
		},
		Mode:   hv.Monitored,
		Policy: hv.DenyNearSlotEnd,
	}
}

// suffixes generates the cell's adversarial continuation: the fault
// model's stream on the attacker and a fresh benign stream on the
// victim, both shifted past the fork point. A pure function of
// (CellSpec, forkT); forkT itself is a pure function of the prefix, so
// the suffix streams are reproducible from the spec alone.
func (cs CellSpec) suffixes(forkT simtime.Time) ([][]simtime.Time, error) {
	model, ok := faults.Lookup(cs.Fault)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown fault model %q", cs.Fault)
	}
	shift := forkT.Sub(0) + simtime.Micros(suffixLeadUs)
	adv := model.Arrivals(rng.NewStream(cs.Seed, streamSuffixAttacker), faults.Params{
		DMin:      simtime.Micros(attackerDMinUs),
		Events:    cs.SuffixEvents,
		Intensity: cs.Intensity,
	})
	atk := make([]simtime.Time, len(adv))
	for i, t := range adv {
		atk[i] = t.Add(shift)
	}
	vic := workload.Timestamps(workload.ExponentialClamped(
		rng.NewStream(cs.Seed, streamSuffixVictim),
		simtime.Micros(victimMeanUs), simtime.Micros(victimDMinUs), cs.SuffixEvents))
	for i := range vic {
		vic[i] = vic[i].Add(shift)
	}
	return [][]simtime.Time{atk, vic}, nil
}

// fullScenario is the prefix scenario with the suffixes appended to
// each source's arrivals — the single-phase equivalent of the warm
// fork, whose content address is a failed cell's fingerprint.
func fullScenario(prefix core.Scenario, sfx [][]simtime.Time) core.Scenario {
	sc := prefix
	irqs := make([]core.IRQSpec, len(sc.IRQs))
	copy(irqs, sc.IRQs)
	for i := range irqs {
		merged := make([]simtime.Time, 0, len(irqs[i].Arrivals)+len(sfx[i]))
		merged = append(merged, irqs[i].Arrivals...)
		merged = append(merged, sfx[i]...)
		irqs[i].Arrivals = merged
	}
	sc.IRQs = irqs
	return sc
}

// CellResult is the cell's wire document: everything the aggregation
// tier folds, in integer cycles and sparse sketch buckets so the fold
// is exact and order-independent. It is the byte payload stored under
// the cell's content address.
type CellResult struct {
	Spec CellSpec `json:"spec"`
	// ForkUs is the fork-point clock (µs, truncated) — diagnostic only.
	ForkUs int64 `json:"fork_us"`

	// Victim latency over the cell's own (suffix) deliveries, in CPU
	// cycles. Min/Max/Sum are meaningful iff Count > 0.
	Count     int64          `json:"count"`
	MinCycles int64          `json:"min_cycles"`
	MaxCycles int64          `json:"max_cycles"`
	SumCycles int64          `json:"sum_cycles"`
	Sketch    []SketchBucket `json:"sketch,omitempty"`

	// Shaping counters over the whole run (prefix + suffix).
	Grants uint64 `json:"grants"`
	Denied uint64 `json:"denied"`

	// The eq. (14) verdict: worst observed cross-partition interference
	// vs the whole-run analytic budget, and the victim's measured worst
	// latency vs its analytic bound. BoundCycles 0 with a note means the
	// analysis declined and the latency check was skipped.
	InterferenceCycles int64  `json:"interference_cycles"`
	BudgetCycles       int64  `json:"budget_cycles"`
	VictimMaxCycles    int64  `json:"victim_max_cycles"`
	BoundCycles        int64  `json:"bound_cycles,omitempty"`
	BoundNote          string `json:"bound_note,omitempty"`

	// Differential-fuzz cells (Spec.Kind KindDiffuzz) additionally fold
	// bound tightness: per checked victim, gap = analytic bound −
	// observed worst latency, in cycles. Min/Sum are meaningful iff
	// GapCount > 0. Invalid marks scenarios the analysis rejected as
	// malformed (counted, not failed).
	GapCount     int64 `json:"gap_count,omitempty"`
	MinGapCycles int64 `json:"min_gap_cycles,omitempty"`
	SumGapCycles int64 `json:"sum_gap_cycles,omitempty"`
	Invalid      bool  `json:"invalid,omitempty"`

	Pass bool `json:"pass"`
	// Violation and Fingerprint are set iff the verdict failed:
	// Violation says which check broke, Fingerprint is the content
	// address of the exact single-phase scenario that reproduces it.
	Violation   string `json:"violation,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// MeanCycles returns the mean suffix latency, truncated.
func (cr *CellResult) MeanCycles() int64 {
	if cr.Count == 0 {
		return 0
	}
	return cr.SumCycles / cr.Count
}

// victimTraceL is the length of the victim's δ⁻ activation model, taken
// from its arrival trace; the attacker's interferer model has
// core.InterfererTraceL entries.
const victimTraceL = 16

// prefixGroup is everything a cell's verdict needs from its shared
// prefix, derived once per prefix group (GroupKey) and read-only from
// then on: the prefix scenario, the worst prefix victim latency, the
// δ⁻ window state of both prefix streams, and the eq. (14) budget's
// fixed inputs. A cell extends copies of the windows by its suffix and
// scans only its own records, so its cost is its suffix.
type prefixGroup struct {
	key       string
	sc        core.Scenario
	forkT     simtime.Time
	victimMax simtime.Duration
	victimWin *curves.TraceWindow
	attackWin *curves.TraceWindow
	// The attacker's l = 1 monitoring condition, the platform cost
	// model and the attacker's per-grant C_BH with the dispatcher's
	// queue pop folded in.
	cond  *curves.Delta
	costs arm.CostModel
	cbh   simtime.Duration
}

// newPrefixGroup derives the group state from the prefix scenario, the
// fork-point clock and the latency records the prefix logged.
func newPrefixGroup(key string, sc core.Scenario, forkT simtime.Time, prefix []tracerec.Record) (*prefixGroup, error) {
	g := &prefixGroup{key: key, sc: sc, forkT: forkT, costs: sc.CostModel()}
	g.cbh = sc.IRQs[cellAttacker].CBH + g.costs.QueuePop
	var err error
	if g.cond, err = curves.NewDelta([]simtime.Duration{simtime.Micros(attackerDMinUs)}); err != nil {
		return nil, fmt.Errorf("campaign: l=1 condition: %w", err)
	}
	if g.victimWin, err = curves.NewTraceWindow(victimTraceL); err != nil {
		return nil, err
	}
	g.victimWin.Extend(sc.IRQs[cellVictim].Arrivals)
	if g.attackWin, err = curves.NewTraceWindow(core.InterfererTraceL); err != nil {
		return nil, err
	}
	g.attackWin.Extend(sc.IRQs[cellAttacker].Arrivals)
	for _, r := range prefix {
		if r.Source == cellVictim && r.Latency() > g.victimMax {
			g.victimMax = r.Latency()
		}
	}
	return g, nil
}

// budget is the eq. (14) interference budget of the cell scenario: one
// monitored source (the attacker, l = 1 at dmin), so the budget over Δt
// is η⁺(Δt) · C'_BH with the dispatcher's queue pop folded into the
// per-grant cost — the analytic mirror of the hv oracle's budget.
func (g *prefixGroup) budget(dt simtime.Duration) simtime.Duration {
	return analysis.InterposedInterferenceDelta(dt, g.cond, g.costs, g.cbh)
}

// deriveResult reduces a cell run to the cell's wire document from its
// prefix group and the cell's own result: the records logged after the
// fork (engine.Campaign.Cell's contract) and whole-run counters. It is
// a pure function of (spec, group, suffixes, result): no clocks, no
// maps, no floats in any summed quantity — the preconditions for the
// aggregate's byte-identical fold.
func deriveResult(cs CellSpec, g *prefixGroup, sfx [][]simtime.Time, res *core.Result) (*CellResult, error) {
	cr := &CellResult{
		Spec:   cs,
		ForkUs: int64(g.forkT) / int64(simtime.Microsecond),
		Grants: res.Stats.InterposedGrants,
		Denied: res.Stats.DeniedViolation,
	}

	// Suffix victim latencies: the deliveries this cell added beyond the
	// shared prefix.
	var sk Sketch
	victimMax := g.victimMax
	for _, r := range res.Log.Records {
		if r.Source != cellVictim {
			continue
		}
		lat := r.Latency()
		if lat > victimMax {
			victimMax = lat
		}
		if !r.Arrival.After(g.forkT) {
			continue // shared-prefix delivery, identical in every cell
		}
		sk.Add(lat.Micros())
		if cr.Count == 0 || int64(lat) < cr.MinCycles {
			cr.MinCycles = int64(lat)
		}
		if int64(lat) > cr.MaxCycles {
			cr.MaxCycles = int64(lat)
		}
		cr.SumCycles += int64(lat)
		cr.Count++
	}
	cr.Sketch = sk.Pairs()
	cr.VictimMaxCycles = int64(victimMax)

	// Verdict (a): worst cross-partition interference vs the whole-run
	// eq. (14) budget.
	var interference simtime.Duration
	for i, p := range res.Partitions {
		if i != cellAttacker && p.StolenInterposed > interference {
			interference = p.StolenInterposed
		}
	}
	budget := g.budget(res.Duration)
	cr.InterferenceCycles = int64(interference)
	cr.BudgetCycles = int64(budget)

	// Verdict (b): measured victim latency vs the analytic
	// delayed-handling bound with the adversary's budget folded in. Both
	// trace models cover prefix and suffix arrivals.
	vw := g.victimWin.Clone()
	vw.Extend(sfx[cellVictim])
	victimModel, err := vw.Delta()
	if err != nil {
		cr.BoundNote = fmt.Sprintf("victim trace model: %v", err)
	} else {
		aw := g.attackWin.Clone()
		aw.Extend(sfx[cellAttacker])
		models := make([]curves.Model, len(g.sc.IRQs))
		models[cellAttacker] = core.TraceModel(aw.Delta())
		rt, err := core.ClassicBoundUnderModels(g.sc, cellVictim, victimModel, models, g.budget, analysis.DefaultHorizon)
		if err != nil {
			cr.BoundNote = fmt.Sprintf("victim bound: %v", err)
		} else {
			cr.BoundCycles = int64(rt.WCRT)
		}
	}

	cr.Pass = true
	switch {
	case interference > budget:
		cr.Pass = false
		cr.Violation = fmt.Sprintf("interference %v exceeds eq. (14) budget %v", interference, budget)
	case cr.BoundCycles > 0 && cr.VictimMaxCycles > cr.BoundCycles:
		cr.Pass = false
		cr.Violation = fmt.Sprintf("victim latency %v exceeds analytic bound %v",
			victimMax, simtime.Duration(cr.BoundCycles))
	}
	if !cr.Pass {
		fp, err := core.Fingerprint(fullScenario(g.sc, sfx))
		if err != nil {
			fp = fmt.Sprintf("unavailable: %v", err)
		}
		cr.Fingerprint = fp
	}
	return cr, nil
}

// Runner executes cells on the warm-prefix path: the first cell of a
// prefix group pays the cold prefix run, snapshots it
// (engine.ForkCampaign) and derives the group's verdict state; every
// later cell of the group rewinds and pays only its suffix. Like the
// arena it wraps, a Runner is single-goroutine — fan-out creates one
// Runner per worker.
type Runner struct {
	arena *engine.SimArena
	camp  *engine.Campaign
	group *prefixGroup
}

// NewRunner returns a fresh runner with its own arena.
func NewRunner() *Runner { return &Runner{arena: engine.NewArena()} }

// Run executes one cell and derives its wire document. Results are
// byte-identical to RunCellCold for the same spec — the warm/cold
// equivalence test holds it to that.
func (r *Runner) Run(cs CellSpec) (*CellResult, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if cs.Kind == KindDiffuzz {
		// The diffuzz cell rebuilds the arena, which invalidates the
		// warm fork.
		r.camp, r.group = nil, nil
		return runDiffuzzCell(r.arena, cs)
	}
	if gk := cs.GroupKey(); r.group == nil || r.group.key != gk {
		// Forget the old group first: if this fork fails, the arena
		// no longer holds the old group's system.
		r.camp, r.group = nil, nil
		sc := prefixScenario(cs.PrefixSeed, cs.PrefixEvents)
		camp, err := r.arena.ForkCampaign(sc)
		if err != nil {
			return nil, fmt.Errorf("campaign: prefix fork: %w", err)
		}
		g, err := newPrefixGroup(gk, sc, camp.Now(), camp.Prefix())
		if err != nil {
			return nil, err
		}
		r.camp, r.group = camp, g
	}
	sfx, err := cs.suffixes(r.group.forkT)
	if err != nil {
		return nil, err
	}
	res, err := r.camp.Cell(sfx)
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s@%g seed %d: %w", cs.Fault, cs.Intensity, cs.Seed, err)
	}
	return deriveResult(cs, r.group, sfx, res)
}

// runDiffuzzCell executes one differential-fuzz cell: generate the
// (class, seed) scenario, run it through both the analytic bounds and
// the DES under the eq. (14) oracle, and reduce the differential
// outcome to the cell wire document. No planted bugs here — campaign
// cells always check the real bounds; the plant is a local self-test
// of the smoke harness (internal/diffuzz.Options).
func runDiffuzzCell(a *engine.SimArena, cs CellSpec) (*CellResult, error) {
	return RunDiffuzzCell(a, cs, diffuzz.Options{})
}

// RunDiffuzzCell is runDiffuzzCell with explicit check options — the
// entry point cmd/diffuzz uses so its planted-bug self-test can fold
// the same cell documents the campaign path produces.
func RunDiffuzzCell(a *engine.SimArena, cs CellSpec, opt diffuzz.Options) (*CellResult, error) {
	out, err := diffuzz.CheckSeed(a, cs.Class, cs.Seed, cs.Events, opt)
	if err != nil {
		return nil, err
	}
	cr := &CellResult{
		Spec:               cs,
		Grants:             out.Grants,
		Denied:             out.DeniedViolation,
		InterferenceCycles: int64(out.Interference),
		BudgetCycles:       int64(out.Budget),
		GapCount:           int64(out.GapCount),
		MinGapCycles:       int64(out.MinGap),
		SumGapCycles:       int64(out.SumGap),
		Invalid:            out.Invalid,
		Pass:               out.OK,
	}
	if v := out.Violation(); v != nil {
		cr.Violation = v.String()
		cr.Fingerprint = out.Fingerprint
	}
	return cr, nil
}

// RunCellCold executes one cell without the snapshot path: prefix run
// from cycle zero on a fresh system, then the suffix as a plain
// two-phase extension. The reference implementation the warm path is
// verified against; it derives the verdict through the same prefix
// group state, built from its own prefix run.
func RunCellCold(cs CellSpec) (*CellResult, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if cs.Kind == KindDiffuzz {
		return runDiffuzzCell(engine.NewArena(), cs)
	}
	sc := prefixScenario(cs.PrefixSeed, cs.PrefixEvents)
	sys, err := core.Build(sc)
	if err != nil {
		return nil, err
	}
	if err := sys.RunToCompletion(core.Horizon(sc)); err != nil {
		return nil, err
	}
	prefix := core.ReportSince(sys, 0).Log.Records
	g, err := newPrefixGroup(cs.GroupKey(), sc, sys.Now(), prefix)
	if err != nil {
		return nil, err
	}
	sfx, err := cs.suffixes(g.forkT)
	if err != nil {
		return nil, err
	}
	last := g.forkT
	for i, s := range sfx {
		if len(s) == 0 {
			continue
		}
		if err := sys.ExtendArrivals(i, s); err != nil {
			return nil, err
		}
		if t := s[len(s)-1]; t > last {
			last = t
		}
	}
	if err := sys.RunToCompletion(last.Add(1000 * sc.CycleLength())); err != nil {
		return nil, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, err
	}
	return deriveResult(cs, g, sfx, core.ReportSince(sys, len(prefix)))
}
