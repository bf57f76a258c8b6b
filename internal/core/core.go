// Package core is the library entry point of the reproduction: it wires
// the paper's contribution — monitored interposed interrupt handling in a
// TDMA-scheduled real-time hypervisor — into a single Scenario/Run API on
// top of the substrates (internal/hv, internal/monitor, internal/curves,
// internal/analysis).
//
// A Scenario declares partitions, IRQ sources with pre-generated arrival
// streams, per-source monitoring conditions and the handling mode
// (Original = Fig. 4a, Monitored = Fig. 4b). Run simulates it and returns
// per-IRQ latency records, handling-mode shares, interference and
// overhead accounting. Analyze computes the matching worst-case bounds
// (eqs. 11–16) so measured and analytic results can be compared the way
// the paper's evaluation does.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/arm"
	"repro/internal/curves"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/monitor"
	"repro/internal/runner"
	"repro/internal/schedtrace"
	"repro/internal/simtime"
	"repro/internal/tracerec"
)

// PartitionSpec declares one TDMA partition.
type PartitionSpec struct {
	Name string
	// Slot is the partition's fixed TDMA slot length T_i.
	Slot simtime.Duration
	// Guest optionally attaches a guest OS model whose task scheduling
	// is simulated over the partition's CPU supply.
	Guest *guestos.OS
}

// LearnSpec configures the self-learning monitor of Appendix A.
type LearnSpec struct {
	// L is the number of δ⁻ entries to learn (the paper uses l = 5).
	L int
	// Events is the length of the learning phase in activations (the
	// paper uses the first 10 % of the trace).
	Events int
	// Bound is the predefined upper bound δ⁻_b the learned function is
	// lifted to (Algorithm 2).
	Bound *curves.Delta
}

// IRQSpec declares one interrupt source.
type IRQSpec struct {
	Name string
	// Partition is the index of the subscriber partition.
	Partition int
	// SharedWith, when non-empty, makes this a shared IRQ delivered to
	// Partition and every listed partition (never interposed; §4).
	SharedWith []int
	// CTH and CBH are the top-/bottom-handler WCETs.
	CTH simtime.Duration
	CBH simtime.Duration
	// Arrivals is the pre-generated stream of hardware IRQ times.
	Arrivals []simtime.Time
	// Exactly one of the following selects the monitoring condition
	// (all zero/nil = unmonitored; the source is never interposed):
	// DMin enforces a minimum distance (l = 1, §5); Condition enforces
	// an explicit δ⁻[l]; Learn learns the condition online.
	DMin      simtime.Duration
	Condition *curves.Delta
	Learn     *LearnSpec
	// SignalsGuest activates sporadic guest task GuestTask in the
	// processing partition on every bottom-handler completion.
	SignalsGuest bool
	GuestTask    int
	// ActualBH optionally gives per-delivery actual bottom-handler
	// execution times (default: CBH). Overrunning interposed handlers
	// are cut at the C_BH budget (see hv.SourceConfig.ActualBH).
	ActualBH []simtime.Duration
}

// WindowSpec is one entry of an explicit ARINC653-style window schedule.
type WindowSpec struct {
	Partition int
	Length    simtime.Duration
}

// Scenario is a complete system description.
type Scenario struct {
	Partitions []PartitionSpec
	// Windows optionally replaces the default one-slot-per-partition
	// rotation with an explicit cyclic window schedule (a partition
	// may own several windows per TDMA cycle).
	Windows []WindowSpec
	IRQs    []IRQSpec
	// Costs are the hypervisor overhead WCETs; nil selects the
	// paper's measured §6.2 values (arm.DefaultCosts).
	Costs *arm.CostModel
	// Mode selects the top-handler variant.
	Mode hv.Mode
	// Policy selects the slot-end collision policy for interposed
	// bottom handlers.
	Policy hv.SlotEndPolicy
	// Tracer, when set, records every CPU execution span for Gantt /
	// CSV inspection (see internal/schedtrace).
	Tracer *schedtrace.Recorder
	// DisableMonitor is the chaos-oracle ablation hook: monitors run
	// but their verdicts are ignored, so conforming-stream shaping is
	// off (see hv.Config.DisableMonitor). Part of the canonical
	// encoding — it changes simulation results.
	DisableMonitor bool
}

// CycleLength returns T_TDMA.
func (sc Scenario) CycleLength() simtime.Duration {
	var sum simtime.Duration
	if len(sc.Windows) > 0 {
		for _, w := range sc.Windows {
			sum += w.Length
		}
		return sum
	}
	for _, p := range sc.Partitions {
		sum += p.Slot
	}
	return sum
}

// PartitionWindows returns the windows of one partition within the
// cyclic schedule, as [start, end) offsets from the cycle start — the
// input of the supply-bound analysis.
func (sc Scenario) PartitionWindows(idx int) []analysis.Window {
	var out []analysis.Window
	var t simtime.Duration
	if len(sc.Windows) > 0 {
		for _, w := range sc.Windows {
			if w.Partition == idx {
				out = append(out, analysis.Window{Start: t, End: t + w.Length})
			}
			t += w.Length
		}
		return out
	}
	for i, p := range sc.Partitions {
		if i == idx {
			out = append(out, analysis.Window{Start: t, End: t + p.Slot})
		}
		t += p.Slot
	}
	return out
}

// CostModel returns the effective hypervisor cost model: Costs if set,
// otherwise the paper's measured §6.2 values.
func (sc Scenario) CostModel() arm.CostModel {
	if sc.Costs != nil {
		return *sc.Costs
	}
	return arm.DefaultCosts()
}

// Build constructs the hypervisor system for a scenario without running
// it, for callers that want stepwise control.
func Build(sc Scenario) (*hv.System, error) {
	cfg, err := buildConfig(sc)
	if err != nil {
		return nil, err
	}
	return hv.New(cfg)
}

// BuildReuse is Build into an existing system arena: sys's allocations
// (simulator, event freelist, partition and source structs, interrupt
// rings, latency log backing array) are reset in place and rewired for
// sc instead of being reallocated. A nil sys builds fresh. Results are
// byte-identical to a fresh Build — the hv.Reinit contract, enforced by
// the engine's equivalence tests.
func BuildReuse(sys *hv.System, sc Scenario) (*hv.System, error) {
	cfg, err := buildConfig(sc)
	if err != nil {
		return nil, err
	}
	if sys == nil {
		return hv.New(cfg)
	}
	if err := sys.Reinit(cfg); err != nil {
		return nil, err
	}
	return sys, nil
}

// Horizon returns the run-to-completion guard horizon for sc: the last
// injected arrival plus a generous number of TDMA cycles.
func Horizon(sc Scenario) simtime.Time {
	var last simtime.Time
	for _, q := range sc.IRQs {
		if n := len(q.Arrivals); n > 0 && q.Arrivals[n-1] > last {
			last = q.Arrivals[n-1]
		}
	}
	return last.Add(1000 * sc.CycleLength())
}

// buildConfig translates a Scenario into the hv.Config encoding shared
// by Build and BuildReuse.
func buildConfig(sc Scenario) (hv.Config, error) {
	cfg := hv.Config{
		Costs:          sc.CostModel(),
		Mode:           sc.Mode,
		Policy:         sc.Policy,
		Tracer:         sc.Tracer,
		DisableMonitor: sc.DisableMonitor,
	}
	for _, p := range sc.Partitions {
		cfg.Slots = append(cfg.Slots, hv.SlotConfig{Name: p.Name, Length: p.Slot, Guest: p.Guest})
	}
	for _, w := range sc.Windows {
		cfg.Windows = append(cfg.Windows, hv.WindowConfig{Partition: w.Partition, Length: w.Length})
	}
	for i, q := range sc.IRQs {
		scfg := hv.SourceConfig{
			Name:         q.Name,
			Subscriber:   q.Partition,
			CTH:          q.CTH,
			CBH:          q.CBH,
			Arrivals:     q.Arrivals,
			SignalsGuest: q.SignalsGuest,
			GuestTask:    q.GuestTask,
			ActualBH:     q.ActualBH,
		}
		if len(q.SharedWith) > 0 {
			scfg.Subscribers = append([]int{q.Partition}, q.SharedWith...)
		}
		set := 0
		if q.DMin > 0 {
			scfg.Monitor = monitor.NewDMin(q.DMin)
			set++
		}
		if q.Condition != nil {
			// A degenerate or non-monotone condition would pass hv
			// validation (the monitor only compares distances) but
			// panic later inside the analysis when the oracle budget
			// takes its η⁺ — reject it at build time with the typed
			// analysis error instead.
			if err := analysis.ValidateModel(fmt.Sprintf("irq %d (%s) condition", i, q.Name), q.Condition); err != nil {
				return hv.Config{}, err
			}
			scfg.Monitor = monitor.New(q.Condition)
			set++
		}
		if q.Learn != nil {
			m, err := monitor.NewLearning(q.Learn.L)
			if err != nil {
				return hv.Config{}, fmt.Errorf("core: irq %d (%s): %w", i, q.Name, err)
			}
			scfg.Monitor = m
			scfg.LearnEvents = q.Learn.Events
			scfg.LearnBound = q.Learn.Bound
			set++
		}
		if set > 1 {
			return hv.Config{}, fmt.Errorf("core: irq %d (%s): multiple monitoring conditions", i, q.Name)
		}
		cfg.Sources = append(cfg.Sources, scfg)
	}
	return cfg, nil
}

// PartitionReport summarises one partition after a run.
type PartitionReport struct {
	Name             string
	Slot             simtime.Duration
	GuestTime        simtime.Duration
	BHTime           simtime.Duration
	StolenInterposed simtime.Duration
	StolenTop        simtime.Duration
	InterposedHits   uint64
}

// SourceReport summarises one IRQ source after a run.
type SourceReport struct {
	Name    string
	Raised  uint64
	Lost    uint64
	Monitor *monitor.Stats // nil when unmonitored
}

// Result is the outcome of Run.
type Result struct {
	Log        *tracerec.Log
	Summary    tracerec.Summary
	Stats      hv.Stats
	Partitions []PartitionReport
	Sources    []SourceReport
	// Duration is the simulated time the run covered.
	Duration simtime.Duration
}

// Run simulates the scenario until every injected IRQ completed. The
// horizon guard is derived from the workload (last arrival plus a
// generous number of TDMA cycles).
func Run(sc Scenario) (*Result, error) {
	sys, err := Build(sc)
	if err != nil {
		return nil, err
	}
	if err := sys.RunToCompletion(Horizon(sc)); err != nil {
		return nil, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, err
	}
	return Report(sys), nil
}

// RunMany simulates independent scenarios across a worker pool and
// returns their results in scenario order. Each simulation owns all of
// its mutable state (system, simulator, log), so the only sharing is
// read-only scenario data; results are byte-identical to running the
// scenarios sequentially. workers == 1 forces the sequential path,
// 0 selects the runner default (REPRO_WORKERS or GOMAXPROCS).
func RunMany(scenarios []Scenario, workers int) ([]*Result, error) {
	return RunManyCtx(context.Background(), scenarios, workers)
}

// RunManyCtx is RunMany with cooperative cancellation: once ctx is
// done no further scenario starts (a simulation already in flight runs
// to completion) and the call returns a non-nil error. The long-running
// service path (internal/serve) uses this to honour per-job deadlines
// without tearing down a simulation mid-flight.
func RunManyCtx(ctx context.Context, scenarios []Scenario, workers int) ([]*Result, error) {
	return runner.MapCtx(ctx, workers, len(scenarios), func(i int) (*Result, error) {
		return Run(scenarios[i])
	})
}

// Report assembles a Result from a (fully or partially) run system.
func Report(sys *hv.System) *Result {
	res := reportCounters(sys)
	res.Log = sys.Log()
	res.Summary = res.Log.Summarize()
	return res
}

// reportCounters is the part of a Result that owns no log memory:
// stats, duration and the per-partition and per-source reports.
func reportCounters(sys *hv.System) *Result {
	res := &Result{
		Stats:    sys.Stats(),
		Duration: sys.Now().Sub(0),
	}
	for _, p := range sys.Partitions() {
		res.Partitions = append(res.Partitions, PartitionReport{
			Name:             p.Name,
			Slot:             p.SlotLen,
			GuestTime:        p.GuestTime,
			BHTime:           p.BHTime,
			StolenInterposed: p.StolenInterposed,
			StolenTop:        p.StolenTop,
			InterposedHits:   p.InterposedHits,
		})
	}
	for _, s := range sys.Sources() {
		sr := SourceReport{Name: s.Name, Raised: s.Raised, Lost: s.Lost}
		if s.Monitor != nil {
			st := s.Monitor.Stats()
			sr.Monitor = &st
		}
		res.Sources = append(res.Sources, sr)
	}
	return res
}

// ReportOwned is Report with the latency records copied out of the
// system: the Result does not alias the system's log, so an arena-held
// system can be Reinit-ed and reused while the Result lives on. Every
// arena-based caller must use this instead of Report — retaining
// Report's aliased log across a reuse is a use-after-reset bug (the
// reprolint arenaretain analyzer flags it in arena-adopting packages).
func ReportOwned(sys *hv.System) *Result {
	res := Report(sys)
	res.Log = &tracerec.Log{Records: append([]tracerec.Record(nil), res.Log.Records...)}
	return res
}

// ReportSince is ReportOwned for the latency records logged at index
// from and later only, and without a Summary. The log is append-only,
// so a run continued from a snapshot taken when it held from records
// reports exactly what the continuation added; the counters (Stats,
// Partitions, Sources, Duration) still cover the whole run. Warm-prefix
// forks use it to copy the shared prefix once and each suffix per cell.
func ReportSince(sys *hv.System, from int) *Result {
	res := reportCounters(sys)
	res.Log = &tracerec.Log{Records: append([]tracerec.Record(nil), sys.Log().Records[from:]...)}
	return res
}

// Analyze computes the worst-case latency bounds of eqs. (11)–(16) for
// IRQ source idx of the scenario, using model as the source's activation
// bound (η⁺/δ⁻) and treating every other source as a top-handler
// interferer.
func Analyze(sc Scenario, idx int, model curves.Model) (analysis.Comparison, error) {
	if idx < 0 || idx >= len(sc.IRQs) {
		return analysis.Comparison{}, errors.New("core: IRQ index out of range")
	}
	costs := sc.CostModel()
	target := sc.IRQs[idx]
	// The simulated handlers additionally pay the interrupt-queue push
	// (top handler) and pop (bottom-handler dispatch); fold them into
	// the WCETs so the bounds envelope the simulation.
	irq := analysis.IRQ{
		Name:  target.Name,
		CTH:   target.CTH + costs.QueuePush,
		CBH:   target.CBH + costs.QueuePop,
		Model: model,
	}
	tdma := analysis.TDMA{
		Cycle:     sc.CycleLength(),
		Slot:      sc.Partitions[target.Partition].Slot,
		SlotEntry: costs.CtxSwitch,
	}
	var others []analysis.IRQ
	for i, q := range sc.IRQs {
		if i == idx {
			continue
		}
		m := interfererModel(q)
		others = append(others, analysis.IRQ{Name: q.Name, CTH: q.CTH + costs.QueuePush, CBH: q.CBH, Model: m})
	}
	return analysis.Compare(irq, tdma, costs, others, analysis.DefaultHorizon)
}

// AnalyzeSchedule computes the classic (delayed-handling) worst-case
// latency bound using the generalised multi-window supply analysis —
// required when the scenario uses an explicit window schedule, and at
// least as tight as eq. (8) for single-slot rotations.
func AnalyzeSchedule(sc Scenario, idx int, model curves.Model) (analysis.ResponseTimeResult, error) {
	if idx < 0 || idx >= len(sc.IRQs) {
		return analysis.ResponseTimeResult{}, errors.New("core: IRQ index out of range")
	}
	costs := sc.CostModel()
	target := sc.IRQs[idx]
	windows := sc.PartitionWindows(target.Partition)
	sched, err := analysis.NewSchedule(sc.CycleLength(), windows, costs.CtxSwitch)
	if err != nil {
		return analysis.ResponseTimeResult{}, err
	}
	irq := analysis.IRQ{
		Name:  target.Name,
		CTH:   target.CTH + costs.QueuePush,
		CBH:   target.CBH + costs.QueuePop,
		Model: model,
	}
	var others []analysis.IRQ
	for i, q := range sc.IRQs {
		if i == idx {
			continue
		}
		others = append(others, analysis.IRQ{Name: q.Name, CTH: q.CTH + costs.QueuePush, CBH: q.CBH, Model: interfererModel(q)})
	}
	return analysis.ClassicLatencySchedule(irq, sched, others, analysis.DefaultHorizon)
}

// ClassicBoundUnder computes the classic delayed-handling worst-case
// latency bound of eqs. (11)–(12) for IRQ idx with additional foreign
// interposed interference folded in (analysis.ClassicLatencyUnder) —
// the victim-side bound of the temporal-independence oracle: under a
// *monitored* adversary the extra term is the adversary's eq. (14)
// budget, and the victim's measured latency must stay below the result.
func ClassicBoundUnder(sc Scenario, idx int, model curves.Model, extra analysis.Interference) (analysis.ResponseTimeResult, error) {
	return ClassicBoundUnderHorizon(sc, idx, model, extra, analysis.DefaultHorizon)
}

// ClassicBoundUnderHorizon is ClassicBoundUnder with an explicit
// busy-window horizon. Callers that sweep many generated systems (the
// differential fuzzer) pass a horizon near the simulated span so that
// overloaded configurations are rejected quickly instead of crawling
// the fixed point toward the default one-hour horizon.
func ClassicBoundUnderHorizon(sc Scenario, idx int, model curves.Model, extra analysis.Interference, horizon simtime.Duration) (analysis.ResponseTimeResult, error) {
	// Interferer top handlers fire for the *actual* stream, not the
	// monitoring condition — a violating arrival is denied interposing
	// but still pays its top handler. Bound them by the concrete trace,
	// never the (possibly violated) condition.
	models := make([]curves.Model, len(sc.IRQs))
	for i, q := range sc.IRQs {
		if i != idx {
			models[i] = traceModel(q.Arrivals)
		}
	}
	return ClassicBoundUnderModels(sc, idx, model, models, extra, horizon)
}

// ClassicBoundUnderModels is ClassicBoundUnderHorizon with the
// interferers' activation models passed in: models[i] bounds IRQ i's
// arrivals (models[idx] is ignored), so sc's arrival streams are not
// read. A caller that already holds the streams' trace models (a warm
// campaign cell extends its prefix group's δ⁻ trace windows) skips
// re-deriving them.
func ClassicBoundUnderModels(sc Scenario, idx int, model curves.Model, models []curves.Model, extra analysis.Interference, horizon simtime.Duration) (analysis.ResponseTimeResult, error) {
	if idx < 0 || idx >= len(sc.IRQs) {
		return analysis.ResponseTimeResult{}, errors.New("core: IRQ index out of range")
	}
	if len(models) != len(sc.IRQs) {
		return analysis.ResponseTimeResult{}, fmt.Errorf("core: %d interferer models for %d IRQs", len(models), len(sc.IRQs))
	}
	costs := sc.CostModel()
	target := sc.IRQs[idx]
	irq := analysis.IRQ{
		Name:  target.Name,
		CTH:   target.CTH + costs.QueuePush,
		CBH:   target.CBH + costs.QueuePop,
		Model: model,
	}
	tdma := analysis.TDMA{
		Cycle:     sc.CycleLength(),
		Slot:      sc.Partitions[target.Partition].Slot,
		SlotEntry: costs.CtxSwitch,
	}
	var others []analysis.IRQ
	for i, q := range sc.IRQs {
		if i == idx {
			continue
		}
		others = append(others, analysis.IRQ{Name: q.Name, CTH: interfererCTH(q, costs), CBH: q.CBH, Model: models[i]})
	}
	return analysis.ClassicLatencyUnder(irq, tdma, others, extra, horizon)
}

// ScheduleBoundUnder is ClassicBoundUnder for scenarios with an
// explicit multi-window schedule: the TDMA term of eq. (11) is replaced
// by the supply-function interference bound of the partition's windows
// (analysis.ClassicLatencyScheduleUnder), with the same trace-derived
// interferer models and the same extra term.
func ScheduleBoundUnder(sc Scenario, idx int, model curves.Model, extra analysis.Interference) (analysis.ResponseTimeResult, error) {
	return ScheduleBoundUnderHorizon(sc, idx, model, extra, analysis.DefaultHorizon)
}

// ScheduleBoundUnderHorizon is ScheduleBoundUnder with an explicit
// busy-window horizon (see ClassicBoundUnderHorizon).
func ScheduleBoundUnderHorizon(sc Scenario, idx int, model curves.Model, extra analysis.Interference, horizon simtime.Duration) (analysis.ResponseTimeResult, error) {
	if idx < 0 || idx >= len(sc.IRQs) {
		return analysis.ResponseTimeResult{}, errors.New("core: IRQ index out of range")
	}
	costs := sc.CostModel()
	target := sc.IRQs[idx]
	sched, err := analysis.NewSchedule(sc.CycleLength(), sc.PartitionWindows(target.Partition), costs.CtxSwitch)
	if err != nil {
		return analysis.ResponseTimeResult{}, err
	}
	irq := analysis.IRQ{
		Name:  target.Name,
		CTH:   target.CTH + costs.QueuePush,
		CBH:   target.CBH + costs.QueuePop,
		Model: model,
	}
	var others []analysis.IRQ
	for i, q := range sc.IRQs {
		if i == idx {
			continue
		}
		others = append(others, analysis.IRQ{Name: q.Name, CTH: interfererCTH(q, costs), CBH: q.CBH, Model: traceModel(q.Arrivals)})
	}
	return analysis.ClassicLatencyScheduleUnder(irq, sched, others, extra, horizon)
}

// interfererCTH is the top-handler blocking cost one interfering source
// charges the victim. A monitored source's modified top handler (Fig.
// 4b) additionally runs the monitoring function for every foreign-slot
// arrival — and an arrival that blocks the victim is by definition
// foreign to the interferer — so C_Mon must be folded in or the eq.
// (11) blocking term undercounts by C_Mon per interfering activation.
// (Found by the differential fuzzer: the simulated worst case exceeded
// the bound by exactly C_Mon.)
func interfererCTH(q IRQSpec, costs arm.CostModel) simtime.Duration {
	cth := q.CTH + costs.QueuePush
	if q.DMin > 0 || q.Condition != nil || q.Learn != nil {
		cth += costs.Monitor
	}
	return cth
}

// InterfererTraceL is the δ⁻ length of the trace model an interfering
// source's concrete arrival stream is bounded by.
const InterfererTraceL = 8

// traceModel returns the tightest δ⁻ of a concrete arrival stream, or
// an effectively silent model for streams too short to derive one.
func traceModel(arrivals []simtime.Time) curves.Model {
	return TraceModel(curves.DeltaFromTrace(arrivals, InterfererTraceL))
}

// TraceModel turns the result of an InterfererTraceL-entry δ⁻
// derivation over an interferer's arrivals (curves.DeltaFromTrace, or
// a finished curves.TraceWindow) into its interferer model: the δ⁻
// itself, or an effectively silent model when no δ⁻ could be derived
// (a stream of fewer than two events).
func TraceModel(d *curves.Delta, err error) curves.Model {
	if err != nil {
		return curves.Sporadic{DMin: simtime.Infinity / 2}
	}
	return d
}

// interfererModel derives a conservative activation model for an
// interfering source: its declared monitoring condition if any,
// otherwise the tightest δ⁻ of its concrete arrival stream.
func interfererModel(q IRQSpec) curves.Model {
	switch {
	case q.DMin > 0:
		return curves.Sporadic{DMin: q.DMin}
	case q.Condition != nil:
		return q.Condition
	default:
		return traceModel(q.Arrivals)
	}
}

// InterferenceBound returns the eq. (14) bound on the interference the
// scenario's IRQ idx may impose on other partitions within any window dt.
// The source must carry a static monitoring condition.
func InterferenceBound(sc Scenario, idx int, dt simtime.Duration) (simtime.Duration, error) {
	q := sc.IRQs[idx]
	costs := sc.CostModel()
	switch {
	case q.DMin > 0:
		return analysis.InterposedInterference(dt, q.DMin, costs, q.CBH), nil
	case q.Condition != nil:
		return analysis.InterposedInterferenceDelta(dt, q.Condition, costs, q.CBH), nil
	default:
		return 0, fmt.Errorf("core: irq %d (%s) has no static monitoring condition", idx, q.Name)
	}
}
