// Package engine is the zero-alloc simulation engine core: per-worker
// arenas that amortize the substrate's allocations across many runs,
// and warm-prefix campaign forking on top of the DES snapshot/restore
// primitive (DESIGN.md §11).
//
// A SimArena owns one hv.System — simulator, event freelist, partition
// and source structs, interrupt rings, guest task state and the latency
// log backing array — and rewires it in place (core.BuildReuse →
// hv.Reinit) for every scenario it runs, so the steady-state cost of a
// campaign cell is O(1) allocations instead of O(events).
//
// Ownership contract: the arena owns everything the system allocated;
// results handed out of an arena are deep copies (core.ReportOwned).
// Retaining a pointer into arena memory across the next Build/Run is a
// use-after-reset bug — in arena-adopting packages the reprolint
// arenaretain analyzer flags both the aliasing entry points
// (core.Report, hv.System.Log) and any value derived from them that is
// stored into a field, global, map or channel.
//
// Arenas are single-goroutine: no internal locking, exactly one owner.
// The fan-out entry points (RunManyCtx and callers of
// runner.MapCtxPool) create one arena per pool worker, which is what
// makes reuse free of synchronization.
package engine

import (
	"fmt"

	"context"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/hv"
	"repro/internal/runner"
	"repro/internal/simtime"
)

// SimArena is a reusable simulation workspace. The zero value is ready
// to use; the first Build allocates the system, every later Build
// rewires it in place.
type SimArena struct {
	sys *hv.System
}

// NewArena returns a fresh arena — the newLocal hook for
// runner.MapCtxPool call sites.
func NewArena() *SimArena { return &SimArena{} }

// Build constructs the hypervisor system for sc inside the arena,
// reusing the previous system's allocations when one exists. The
// returned system is arena-owned: it is invalidated by the arena's next
// Build/Run/ForkCampaign call.
func (a *SimArena) Build(sc core.Scenario) (*hv.System, error) {
	sys, err := core.BuildReuse(a.sys, sc)
	if err != nil {
		return nil, err
	}
	a.sys = sys
	return sys, nil
}

// Run simulates sc to completion inside the arena and returns an owned
// result (no aliasing into arena memory). It is byte-identical to
// core.Run — the equivalence tests and the byte-identity suite hold it
// to that.
func (a *SimArena) Run(sc core.Scenario) (*core.Result, error) {
	sys, err := a.Build(sc)
	if err != nil {
		return nil, err
	}
	if err := sys.RunToCompletion(core.Horizon(sc)); err != nil {
		return nil, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, err
	}
	return core.ReportOwned(sys), nil
}

// RunMany is core.RunMany on arenas: one SimArena per pool worker, so a
// campaign of n scenarios costs a handful of system allocations instead
// of n. Results are byte-identical to core.RunMany.
func RunMany(scenarios []core.Scenario, workers int) ([]*core.Result, error) {
	return RunManyCtx(context.Background(), scenarios, workers)
}

// RunManyCtx is RunMany with the runner.MapCtx cancellation contract.
func RunManyCtx(ctx context.Context, scenarios []core.Scenario, workers int) ([]*core.Result, error) {
	return runner.MapCtxPool(ctx, workers, len(scenarios),
		func() *SimArena { return &SimArena{} },
		func(a *SimArena, i int) (*core.Result, error) { return a.Run(scenarios[i]) })
}

// Campaign is a warm-prefix fork point: a snapshot of the arena's
// system taken after the shared prefix completed. Each Cell rewinds to
// the snapshot and pays only for its suffix.
type Campaign struct {
	arena *SimArena
	sn    *des.Snapshot
	cycle simtime.Duration
	nsrc  int
}

// ForkCampaign runs sc — the campaign's shared warm prefix — to
// completion inside the arena and snapshots the end state. The prefix
// must be untraced (trace recordings cannot be rewound). The arena is
// pinned to the campaign: using it for other runs invalidates the
// campaign, not the other way around.
func (a *SimArena) ForkCampaign(sc core.Scenario) (*Campaign, error) {
	sys, err := a.Build(sc)
	if err != nil {
		return nil, err
	}
	if err := sys.RunToCompletion(core.Horizon(sc)); err != nil {
		return nil, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, err
	}
	sn, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Campaign{arena: a, sn: sn, cycle: sc.CycleLength(), nsrc: len(sc.IRQs)}, nil
}

// Now returns the simulation clock at the fork point. Suffix arrivals
// passed to Cell must not precede it.
func (c *Campaign) Now() simtime.Time {
	return c.sn.Now()
}

// Cell rewinds the arena to the fork point, appends suffixes[i] to IRQ
// source i (an empty entry extends nothing; suffixes must cover every
// source) and runs the extended scenario to completion. The result is
// owned and covers prefix plus suffix, byte-identical to a straight
// two-phase run of the same arrivals — the fork-determinism fuzz test
// holds it to that.
func (c *Campaign) Cell(suffixes [][]simtime.Time) (*core.Result, error) {
	if len(suffixes) != c.nsrc {
		return nil, fmt.Errorf("engine: campaign has %d IRQ sources, got %d suffixes", c.nsrc, len(suffixes))
	}
	sys := c.arena.sys
	sys.Restore(c.sn)
	last := sys.Now()
	for i, sfx := range suffixes {
		if len(sfx) == 0 {
			continue
		}
		if err := sys.ExtendArrivals(i, sfx); err != nil {
			return nil, err
		}
		if t := sfx[len(sfx)-1]; t > last {
			last = t
		}
	}
	if err := sys.RunToCompletion(last.Add(1000 * c.cycle)); err != nil {
		return nil, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, err
	}
	return core.ReportOwned(sys), nil
}
