package repro

// Allocation-budget regression tests for the zero-alloc engine core
// (DESIGN.md §11). These are tier-1: scripts/check.sh runs them in a
// dedicated non-race pass (the race detector's instrumentation
// allocates, so the budgets only hold without it). The budgets are
// deliberately loose multiples of the measured steady state — they
// exist to catch an accidental return to O(events) allocation, not to
// pin exact counts.

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestAllocBudgetDESStep pins the DES hot path: once the event freelist
// and queue backing array are warm, scheduling and firing an event
// allocates nothing.
func TestAllocBudgetDESStep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race; scripts/check.sh runs this without it")
	}
	sim := des.New()
	nop := func() {}
	// Warm the freelist and the queue's backing array.
	for i := 0; i < 64; i++ {
		sim.After(simtime.Microsecond, "warm", nop)
	}
	sim.Drain()
	allocs := testing.AllocsPerRun(200, func() {
		sim.After(simtime.Microsecond, "tick", nop)
		sim.Drain()
	})
	if allocs != 0 {
		t.Fatalf("DES schedule+fire allocates %.1f per event, want 0", allocs)
	}
}

// TestAllocBudgetFig6Cell pins the macro path: one Fig. 6a-shaped cell
// (2000 IRQs through the full pipeline) on a warm arena must cost O(1)
// allocations — scenario assembly, one fresh monitor and the copied-out
// result — not O(events). Before the arena core this cell cost ~8700
// allocations (BENCH_PR4.json: 26191 across three loads).
func TestAllocBudgetFig6Cell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race; scripts/check.sh runs this without it")
	}
	lambda := simtime.Micros(1344)
	arrivals := workload.Timestamps(workload.Exponential(rng.New(1), lambda, 2000))
	cell := func() core.Scenario {
		return monitoredScenario(core.IRQSpec{Name: "t0", Arrivals: arrivals, DMin: lambda})
	}
	arena := engine.NewArena()
	if _, err := arena.Run(cell()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := arena.Run(cell()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 120 {
		t.Fatalf("warm Fig6a cell allocates %.0f per run, want O(1) (≤ 120)", allocs)
	}
}

// TestAllocBudgetCampaignCell pins the warm campaign cell: on a Runner
// that already forked the prefix group, a cell allocates for its
// suffix, its owned suffix records and its wire document — 53 per cell
// on average over one fault × intensity sweep — not for the 2000-event
// prefix. Regenerating the prefix scenario, copying its records or
// re-deriving its δ⁻ per cell cost 151.
func TestAllocBudgetCampaignCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race; scripts/check.sh runs this without it")
	}
	r := campaign.NewRunner()
	if _, err := r.Run(campaignCell(0)); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := r.Run(campaignCell(i)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 106 {
		t.Fatalf("warm campaign cell allocates %.0f per run, want ≤ 106 (2× the steady state)", allocs)
	}
}
