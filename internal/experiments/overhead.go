package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/arm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hv"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// OverheadLoad captures the context-switch accounting of one interrupt
// load, comparing the original against the modified hypervisor on the
// identical arrival stream.
type OverheadLoad struct {
	Load              float64
	Lambda            simtime.Duration
	CtxBaseline       uint64 // context switches, original top handler
	CtxMonitored      uint64 // context switches, modified top handler
	IncreasePct       float64
	Grants            uint64
	MonitorTime       simtime.Duration
	SchedTime         simtime.Duration
	MonitorTimeShare  float64 // of total simulated time
	InterposedPerSec  float64
	SimulatedDuration simtime.Duration
}

// OverheadResult reproduces the §6.2 memory and runtime overhead table.
type OverheadResult struct {
	// Code/data footprint of the reference C implementation (gcc -O1),
	// reported by the paper; not reproducible in Go and carried as the
	// paper's constants (see DESIGN.md §2).
	CodeBytesTotal      int
	CodeBytesScheduler  int
	CodeBytesTopHandler int
	CodeBytesMonitor    int
	DataBytesMonitorL1  int // our monitor's state accounting at l = 1

	// Runtime overheads: the paper's measured instruction counts and
	// the cycle costs the simulation charges.
	MonitorInstr       int
	SchedInstr         int
	CtxSwitchInstr     int
	CtxWritebackCycles int
	Costs              arm.CostModel

	// Scenario-2 context-switch accounting per load and cumulative
	// (the paper reports ~10 % more context switches for dmin = λ).
	PerLoad            []OverheadLoad
	CumIncreasePct     float64
	CumCtxBaseline     uint64
	CumCtxMonitored    uint64
	EffectiveBH        simtime.Duration // C'_BH of eq. (13)
	EffectiveTHDelta   simtime.Duration // C_Mon added to C_TH (eq. 15)
	InterposedOverhead simtime.Duration // C_sched + 2·C_ctx
}

// Overhead regenerates the §6.2 table. cfg supplies the scenario-2
// parameters (DefaultFig6 for the paper's setup).
func Overhead(cfg Fig6Config) (*OverheadResult, error) {
	return OverheadCtx(context.Background(), cfg)
}

// OverheadCtx is Overhead with cooperative cancellation: once ctx is
// done no further baseline or monitored run starts and the call returns
// a non-nil error (see runner.MapCtx).
func OverheadCtx(ctx context.Context, cfg Fig6Config) (*OverheadResult, error) {
	stop := metrics.Timer("overhead")
	costs := defaultScenario(cfg).CostModel()
	mon := monitor.NewDMin(simtime.Millisecond)
	out := &OverheadResult{
		CodeBytesTotal:      arm.CodeBytesTotal,
		CodeBytesScheduler:  arm.CodeBytesScheduler,
		CodeBytesTopHandler: arm.CodeBytesTopHandler,
		CodeBytesMonitor:    arm.CodeBytesMonitor,
		DataBytesMonitorL1:  mon.DataBytes(),
		MonitorInstr:        arm.MonitorInstr,
		SchedInstr:          arm.SchedInstr,
		CtxSwitchInstr:      arm.CtxSwitchInstr,
		CtxWritebackCycles:  arm.CtxSwitchWritebackCycles,
		Costs:               costs,
		EffectiveBH:         costs.EffectiveBH(cfg.CBH),
		EffectiveTHDelta:    costs.Monitor,
		InterposedOverhead:  costs.InterposedOverhead(),
	}

	cbhEff := costs.EffectiveBH(cfg.CBH)
	lambdaOf := func(li int) simtime.Duration {
		return simtime.FromMicrosF(cbhEff.MicrosF() / cfg.Loads[li])
	}
	// One job per (load, mode): job 2·li runs load li's original
	// hypervisor, job 2·li+1 its modified one on the same rebuilt
	// arrival stream. Independent runs, rather than back-to-back pairs,
	// keep every worker busy; each needs only the system's counters.
	type modeRun struct {
		stats hv.Stats
		dur   simtime.Duration
	}
	runs, err := runner.MapCtxPool(ctx, cfg.Workers, 2*len(cfg.Loads), engine.NewArena, func(a *engine.SimArena, j int) (modeRun, error) {
		li, mode, name := j/2, hv.Original, "baseline"
		if j%2 == 1 {
			mode, name = hv.Monitored, "monitored"
		}
		lambda := lambdaOf(li)
		src := rng.NewStream(cfg.Seed, uint64(li)+1) //nolint:gosec
		irq := core.IRQSpec{
			Name: "timer0", Partition: 0,
			CTH: cfg.CTH, CBH: cfg.CBH,
			Arrivals: workload.Timestamps(workload.Exponential(src, lambda, cfg.EventsPerLoad)),
		}
		if mode == hv.Monitored {
			irq.DMin = lambda
		}
		sc := defaultScenario(cfg)
		sc.Mode = mode
		sc.IRQs = []core.IRQSpec{irq}
		st, dur, err := a.RunStats(sc)
		if err != nil {
			return modeRun{}, fmt.Errorf("experiments: overhead %s %.0f%%: %w", name, 100*cfg.Loads[li], err)
		}
		return modeRun{st, dur}, nil
	})
	if err != nil {
		return nil, err
	}
	perLoad := make([]OverheadLoad, len(cfg.Loads))
	for li, load := range cfg.Loads {
		base, monitored := runs[2*li], runs[2*li+1]
		ol := OverheadLoad{
			Load:              load,
			Lambda:            lambdaOf(li),
			CtxBaseline:       base.stats.CtxSwitches,
			CtxMonitored:      monitored.stats.CtxSwitches,
			Grants:            monitored.stats.InterposedGrants,
			MonitorTime:       monitored.stats.MonitorTime,
			SchedTime:         monitored.stats.SchedTime,
			SimulatedDuration: monitored.dur,
		}
		if ol.CtxBaseline > 0 {
			ol.IncreasePct = 100 * (float64(ol.CtxMonitored) - float64(ol.CtxBaseline)) / float64(ol.CtxBaseline)
		}
		if ol.SimulatedDuration > 0 {
			ol.MonitorTimeShare = float64(ol.MonitorTime) / float64(ol.SimulatedDuration)
			ol.InterposedPerSec = float64(ol.Grants) / (float64(ol.SimulatedDuration) / float64(simtime.Second))
		}
		perLoad[li] = ol
	}
	out.PerLoad = perLoad
	for _, ol := range perLoad {
		out.CumCtxBaseline += ol.CtxBaseline
		out.CumCtxMonitored += ol.CtxMonitored
	}
	if out.CumCtxBaseline > 0 {
		out.CumIncreasePct = 100 * (float64(out.CumCtxMonitored) - float64(out.CumCtxBaseline)) / float64(out.CumCtxBaseline)
	}
	stop()
	return out, nil
}

// Write renders the overhead table.
func (r *OverheadResult) Write(w io.Writer) {
	fmt.Fprintln(w, "== §6.2 Memory and runtime overhead ==")
	fmt.Fprintln(w, "memory (reference C implementation, gcc -O1, paper-reported):")
	fmt.Fprintf(w, "  code total        %5d B\n", r.CodeBytesTotal)
	fmt.Fprintf(w, "  - TDMA scheduler  %5d B\n", r.CodeBytesScheduler)
	fmt.Fprintf(w, "  - top handler     %5d B\n", r.CodeBytesTopHandler)
	fmt.Fprintf(w, "  - monitor         %5d B\n", r.CodeBytesMonitor)
	fmt.Fprintf(w, "  data (monitor, l=1) %3d B\n", r.DataBytesMonitorL1)
	fmt.Fprintln(w, "runtime (charged by the simulation):")
	fmt.Fprintf(w, "  C_Mon    %4d instr = %7.2fµs\n", r.MonitorInstr, r.Costs.Monitor.MicrosF())
	fmt.Fprintf(w, "  C_sched  %4d instr = %7.2fµs\n", r.SchedInstr, r.Costs.Sched.MicrosF())
	fmt.Fprintf(w, "  C_ctx    %4d instr + %d cycles writeback = %7.2fµs\n",
		r.CtxSwitchInstr, r.CtxWritebackCycles, r.Costs.CtxSwitch.MicrosF())
	fmt.Fprintf(w, "  per interposed IRQ: C_sched + 2·C_ctx = %7.2fµs; C'_BH = %7.2fµs\n",
		r.InterposedOverhead.MicrosF(), r.EffectiveBH.MicrosF())
	fmt.Fprintln(w, "context switches (scenario 2, dmin = λ):")
	for _, ol := range r.PerLoad {
		fmt.Fprintf(w, "  load %4.1f%%: baseline %6d → monitored %6d (%+.1f%%, %d grants)\n",
			100*ol.Load, ol.CtxBaseline, ol.CtxMonitored, ol.IncreasePct, ol.Grants)
	}
	fmt.Fprintf(w, "  cumulative: %d → %d (%+.1f%%)\n", r.CumCtxBaseline, r.CumCtxMonitored, r.CumIncreasePct)
}
