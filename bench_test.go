package repro

// One benchmark per table/figure of the paper's evaluation (§6 and
// Appendix A), plus micro-benchmarks of the hot paths (simulation step,
// monitor check, busy-window analysis) and ablation benches for the
// design choices called out in DESIGN.md §5. The figure benches report
// the reproduced headline metrics via b.ReportMetric so `go test
// -bench=.` regenerates the paper's numbers alongside the timing.

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arm"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/curves"
	"repro/internal/des"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/monitor"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/tracerec"
	"repro/internal/workload"
)

func benchFig6Cfg() experiments.Fig6Config {
	cfg := experiments.DefaultFig6()
	cfg.EventsPerLoad = 2000 // statistics-preserving reduction
	return cfg
}

// monitoredScenario is the evaluation's three-partition TDMA system
// (6 + 6 + 2 ms slots, resume-across-slots) with one monitored IRQ
// source on app1 at C_TH 6 µs and C_BH 30 µs; irq supplies the name,
// arrivals and monitor model.
func monitoredScenario(irq core.IRQSpec) core.Scenario {
	irq.Partition = 0
	irq.CTH, irq.CBH = simtime.Micros(6), simtime.Micros(30)
	return core.Scenario{
		Partitions: []core.PartitionSpec{
			{Name: "app1", Slot: simtime.Micros(6000)},
			{Name: "app2", Slot: simtime.Micros(6000)},
			{Name: "hk", Slot: simtime.Micros(2000)},
		},
		Mode:   hv.Monitored,
		Policy: hv.ResumeAcrossSlots,
		IRQs:   []core.IRQSpec{irq},
	}
}

// throughputScenario is the single-IRQ pipeline the throughput
// benchmarks time: 2000 exponential arrivals, mean and dmin 1344 µs.
func throughputScenario() core.Scenario {
	lambda := simtime.Micros(1344)
	arrivals := workload.Timestamps(workload.Exponential(rng.New(1), lambda, 2000))
	return monitoredScenario(core.IRQSpec{Name: "t0", Arrivals: arrivals, DMin: lambda})
}

// gcPerOp resets the timer and returns a func that stops it and reports
// the GC cycles completed in between as "gc/op": a collection that
// overlaps a run perturbs its timing (write barriers, mark assists) even
// when allocs/op is unchanged. Call it as `defer gcPerOp(b)()` after any
// setup; the counter reads sit outside the timed region, so they add
// nothing to allocs/op.
func gcPerOp(b *testing.B) func() {
	gc0 := gcCycles()
	report := func() {
		b.StopTimer()
		b.ReportMetric(float64(gcCycles()-gc0)/float64(b.N), "gc/op")
	}
	b.ResetTimer()
	return report
}

// gcCycles returns the number of GC cycles completed so far, read
// without stopping the world.
func gcCycles() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// BenchmarkFig6a regenerates Figure 6a: latency histogram with
// monitoring disabled (original top handler).
func BenchmarkFig6a(b *testing.B) {
	defer gcPerOp(b)()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(experiments.Fig6a, benchFig6Cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Summary.Mean.MicrosF(), "mean_µs")
		b.ReportMetric(r.Summary.Max.MicrosF(), "max_µs")
		b.ReportMetric(100*r.Summary.Share(tracerec.Delayed), "delayed_%")
	}
}

// BenchmarkFig6b regenerates Figure 6b: monitoring enabled, arrivals may
// violate dmin.
func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(experiments.Fig6b, benchFig6Cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Summary.Mean.MicrosF(), "mean_µs")
		b.ReportMetric(100*r.Summary.Share(tracerec.Interposed), "interposed_%")
		b.ReportMetric(100*r.Summary.Share(tracerec.Delayed), "delayed_%")
	}
}

// BenchmarkFig6c regenerates Figure 6c: monitoring enabled with a
// dmin-conforming arrival stream.
func BenchmarkFig6c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(experiments.Fig6c, benchFig6Cfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Summary.Mean.MicrosF(), "mean_µs")
		b.ReportMetric(100*r.Summary.Share(tracerec.Interposed), "interposed_%")
	}
}

// BenchmarkFig7 regenerates Figure 7: the ECU-trace testcase with the
// self-learning δ⁻[5] monitor and four load bounds (Appendix A).
func BenchmarkFig7(b *testing.B) {
	cfg := experiments.DefaultFig7()
	cfg.ECU.Events = 4000
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Graphs[0].RunAvg, "run_avg_a_µs")
		b.ReportMetric(r.Graphs[1].RunAvg, "run_avg_b_µs")
		b.ReportMetric(r.Graphs[2].RunAvg, "run_avg_c_µs")
		b.ReportMetric(r.Graphs[3].RunAvg, "run_avg_d_µs")
	}
}

// BenchmarkOverheadTable regenerates the §6.2 memory/runtime overhead
// table, including the context-switch increase of scenario 2.
func BenchmarkOverheadTable(b *testing.B) {
	cfg := benchFig6Cfg()
	cfg.EventsPerLoad = 1000
	for i := 0; i < b.N; i++ {
		r, err := experiments.Overhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CumIncreasePct, "ctx_increase_%")
		b.ReportMetric(r.Costs.CtxSwitch.MicrosF(), "C_ctx_µs")
	}
}

// BenchmarkAnalysisBounds evaluates the worst-case latency bounds of
// eqs. (11)–(16) — the analytic result the evaluation validates.
func BenchmarkAnalysisBounds(b *testing.B) {
	irq := analysis.IRQ{
		Name: "timer0",
		CTH:  simtime.Micros(6),
		CBH:  simtime.Micros(30),
		Model: curves.PJD{
			Period: simtime.Micros(1344),
			Jitter: simtime.Micros(200),
			DMin:   simtime.Micros(1344),
		},
	}
	tdma := analysis.TDMA{Cycle: simtime.Micros(14000), Slot: simtime.Micros(6000)}
	costs := arm.DefaultCosts()
	var cmp analysis.Comparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = analysis.Compare(irq, tdma, costs, nil, analysis.DefaultHorizon)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.Classic.WCRT.MicrosF(), "classic_µs")
	b.ReportMetric(cmp.Interposed.WCRT.MicrosF(), "interposed_µs")
}

// BenchmarkAblationSlotEndPolicy compares the three slot-end collision
// policies on the scenario-3 workload (DESIGN.md §5): mean latency and
// the delayed share each policy leaves behind.
func BenchmarkAblationSlotEndPolicy(b *testing.B) {
	for _, pol := range []hv.SlotEndPolicy{hv.DenyNearSlotEnd, hv.SplitOnSlotEnd, hv.ResumeAcrossSlots} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := benchFig6Cfg()
			cfg.Policy = pol
			for i := 0; i < b.N; i++ {
				r, err := experiments.Fig6(experiments.Fig6c, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Summary.Mean.MicrosF(), "mean_µs")
				b.ReportMetric(100*r.Summary.Share(tracerec.Delayed), "delayed_%")
			}
		})
	}
}

// BenchmarkAblationMonitorLength sweeps the δ⁻ length l on the ECU trace:
// each additional entry adds a burst constraint, trading admitted grants
// for a tighter multi-event interference guarantee (see EXPERIMENTS.md).
func BenchmarkAblationMonitorLength(b *testing.B) {
	trace, err := workload.ECUTrace(workload.ECUConfig{Events: 3000, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range []int{1, 2, 5, 10} {
		b.Run(string(rune('0'+l/10))+string(rune('0'+l%10)), func(b *testing.B) {
			learn := len(trace) / 10
			recorded, err := curves.DeltaFromTrace(trace[:learn], l)
			if err != nil {
				b.Fatal(err)
			}
			bound := recorded.ScaleDistances(2)
			for i := 0; i < b.N; i++ {
				sc := monitoredScenario(core.IRQSpec{
					Name: "ecu", Arrivals: trace,
					Learn: &core.LearnSpec{L: l, Events: learn, Bound: bound},
				})
				res, err := core.Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Summary.Mean.MicrosF(), "mean_µs")
				b.ReportMetric(float64(res.Stats.InterposedGrants), "grants")
			}
		})
	}
}

// BenchmarkFig6aParallel is BenchmarkFig6a with the per-load runs fanned
// out over the worker pool (internal/runner). The headline metrics must
// match BenchmarkFig6a exactly — parallelism is not allowed to change
// results, only wall clock.
func BenchmarkFig6aParallel(b *testing.B) {
	cfg := benchFig6Cfg()
	cfg.Workers = runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(experiments.Fig6a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Summary.Mean.MicrosF(), "mean_µs")
		b.ReportMetric(r.Summary.Max.MicrosF(), "max_µs")
		b.ReportMetric(100*r.Summary.Share(tracerec.Delayed), "delayed_%")
	}
}

// BenchmarkSimulationThroughput measures raw simulator speed: simulated
// IRQs per wall-clock second through the full monitored pipeline.
func BenchmarkSimulationThroughput(b *testing.B) {
	sc := throughputScenario()
	defer gcPerOp(b)()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sc.IRQs[0].Arrivals)*b.N)/b.Elapsed().Seconds(), "IRQs/s")
}

// BenchmarkArenaThroughput is BenchmarkSimulationThroughput on the
// zero-alloc arena path: one arena reused across iterations, so the
// steady-state allocs/op measure the engine core, not system
// construction.
func BenchmarkArenaThroughput(b *testing.B) {
	sc := throughputScenario()
	arena := engine.NewArena()
	defer gcPerOp(b)()
	for i := 0; i < b.N; i++ {
		if _, err := arena.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sc.IRQs[0].Arrivals)*b.N)/b.Elapsed().Seconds(), "IRQs/s")
}

// campaignCell is cell i of a perfbench-shaped campaign round: the 5
// fault models × intensities 0.25–1 × seeds, all sharing one 2000-event
// prefix group, each with a 150-event suffix.
func campaignCell(i int) campaign.CellSpec {
	names := faults.Names()
	return campaign.CellSpec{
		Fault:        names[i%len(names)],
		Intensity:    0.25 * float64(1+(i/len(names))%4),
		Seed:         uint64(1 + i/(4*len(names))),
		PrefixSeed:   2014,
		PrefixEvents: 2000,
		SuffixEvents: 150,
	}
}

// BenchmarkCampaignCell measures one warm campaign cell end to end on a
// Runner that already forked the cell's prefix group: snapshot restore,
// suffix generation and simulation, and the eq. (14) verdict.
func BenchmarkCampaignCell(b *testing.B) {
	r := campaign.NewRunner()
	if _, err := r.Run(campaignCell(0)); err != nil {
		b.Fatal(err)
	}
	defer gcPerOp(b)()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(campaignCell(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorCheck measures the δ⁻ monitor's admission check — the
// operation the paper bounds at ~10–100 cycles on the target.
func BenchmarkMonitorCheck(b *testing.B) {
	m := monitor.NewDMin(simtime.Micros(100))
	t := simtime.Time(0)
	for i := 0; i < b.N; i++ {
		t = t.Add(simtime.Micros(150))
		if m.Check(t) == monitor.Conforming {
			m.Commit(t)
		}
	}
}

// BenchmarkMonitorCheckL5 measures the l = 5 variant used in Appendix A.
func BenchmarkMonitorCheckL5(b *testing.B) {
	d, err := curves.NewDelta([]simtime.Duration{
		simtime.Micros(10), simtime.Micros(50), simtime.Micros(120),
		simtime.Micros(250), simtime.Micros(500),
	})
	if err != nil {
		b.Fatal(err)
	}
	m := monitor.New(d)
	t := simtime.Time(0)
	for i := 0; i < b.N; i++ {
		t = t.Add(simtime.Micros(130))
		if m.Check(t) == monitor.Conforming {
			m.Commit(t)
		}
	}
}

// BenchmarkBusyWindow measures one busy-window fixed-point iteration.
func BenchmarkBusyWindow(b *testing.B) {
	tdma := analysis.TDMA{Cycle: simtime.Micros(14000), Slot: simtime.Micros(6000)}
	model := curves.PJD{Period: simtime.Micros(1344), Jitter: simtime.Micros(200), DMin: simtime.Micros(1344)}
	inf := func(dt simtime.Duration) simtime.Duration {
		return tdma.Interference(dt) + simtime.Duration(model.EtaPlus(dt))*simtime.Micros(6)
	}
	for i := 0; i < b.N; i++ {
		if _, err := analysis.BusyWindow(3, simtime.Micros(30), inf, analysis.DefaultHorizon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkECUTrace measures synthetic trace generation.
func BenchmarkECUTrace(b *testing.B) {
	cfg := workload.ECUConfig{Events: 11000, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := workload.ECUTrace(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESEventThroughput measures raw kernel speed: self-
// rescheduling events per second.
func BenchmarkDESEventThroughput(b *testing.B) {
	sim := des.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			sim.After(simtime.Microsecond, "tick", tick)
		}
	}
	sim.After(simtime.Microsecond, "tick", tick)
	defer gcPerOp(b)()
	sim.Drain()
}

// BenchmarkDESCancel measures lazy cancellation: schedule two events,
// cancel one, fire the other. The cancel itself is O(1); the canceled
// entry is reclaimed on pop (mark-and-skip).
func BenchmarkDESCancel(b *testing.B) {
	sim := des.New()
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep := sim.After(simtime.Microsecond, "keep", nop)
		drop := sim.After(2*simtime.Microsecond, "drop", nop)
		sim.Cancel(drop)
		_ = keep
		sim.Drain()
	}
}

// BenchmarkGuestOSAdvance measures guest scheduling over supply windows.
func BenchmarkGuestOSAdvance(b *testing.B) {
	g := guestos.New("bench")
	mustAdd := func(t guestos.Task) {
		if _, err := g.AddTask(t); err != nil {
			b.Fatal(err)
		}
	}
	mustAdd(guestos.Task{Name: "a", Period: 5 * simtime.Millisecond, WCET: simtime.Millisecond})
	mustAdd(guestos.Task{Name: "b", Period: 11 * simtime.Millisecond, WCET: 2 * simtime.Millisecond})
	mustAdd(guestos.Task{Name: "bg"})
	b.ResetTimer()
	var t simtime.Time
	for i := 0; i < b.N; i++ {
		g.Advance(t, t.Add(6*simtime.Millisecond))
		t = t.Add(14 * simtime.Millisecond)
	}
}

// BenchmarkMonitorLearning measures Algorithm 1's per-IRQ cost at l = 5.
func BenchmarkMonitorLearning(b *testing.B) {
	m, err := monitor.NewLearning(5)
	if err != nil {
		b.Fatal(err)
	}
	t := simtime.Time(0)
	for i := 0; i < b.N; i++ {
		t = t.Add(simtime.Micros(130))
		m.Learn(t)
	}
}

// BenchmarkSupplyBound measures the multi-window sbf evaluation.
func BenchmarkSupplyBound(b *testing.B) {
	sched, err := analysis.NewSchedule(simtime.Micros(20000), []analysis.Window{
		{Start: simtime.Micros(1000), End: simtime.Micros(4000)},
		{Start: simtime.Micros(8000), End: simtime.Micros(9000)},
		{Start: simtime.Micros(15000), End: simtime.Micros(19000)},
	}, simtime.Micros(50))
	if err != nil {
		b.Fatal(err)
	}
	var sink simtime.Duration
	for i := 0; i < b.N; i++ {
		sink += sched.Supply(simtime.Duration(i%100000) * simtime.Microsecond)
	}
	_ = sink
}
