package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hv"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/tracerec"
	"repro/internal/workload"
)

func us(v int64) simtime.Duration { return simtime.Micros(v) }

// testScenario builds a §6.1-style two-source scenario: a monitored
// timer on partition 0 and an unmonitored interferer on partition 1.
func testScenario(seed uint64, events int) core.Scenario {
	mon := workload.ExponentialClamped(rng.New(seed), us(1344), us(1344), events)
	itf := workload.ExponentialClamped(rng.NewStream(seed, 7), us(2500), us(500), events/2)
	return core.Scenario{
		Mode: hv.Monitored,
		Partitions: []core.PartitionSpec{
			{Name: "app1", Slot: us(6000)},
			{Name: "app2", Slot: us(6000)},
			{Name: "hk", Slot: us(2000)},
		},
		IRQs: []core.IRQSpec{
			{Name: "timer0", Partition: 0, CTH: us(6), CBH: us(30),
				Arrivals: workload.Timestamps(mon), DMin: us(1344)},
			{Name: "eth0", Partition: 1, CTH: us(8), CBH: us(45),
				Arrivals: workload.Timestamps(itf)},
		},
	}
}

func requireEqualResults(t testing.TB, want, got *core.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Log.Records, got.Log.Records) {
		t.Fatalf("%s: latency records diverge (want %d, got %d records)",
			label, len(want.Log.Records), len(got.Log.Records))
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("%s: stats diverge:\nwant %+v\ngot  %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Summary, got.Summary) {
		t.Fatalf("%s: summaries diverge", label)
	}
	if !reflect.DeepEqual(want.Partitions, got.Partitions) {
		t.Fatalf("%s: partition reports diverge", label)
	}
	if !reflect.DeepEqual(want.Sources, got.Sources) {
		t.Fatalf("%s: source reports diverge", label)
	}
	if want.Duration != got.Duration {
		t.Fatalf("%s: durations diverge: want %v got %v", label, want.Duration, got.Duration)
	}
}

// TestArenaRunMatchesCoreRun reuses one arena across different
// scenarios and requires every run to be byte-identical to the
// allocate-fresh core.Run path.
func TestArenaRunMatchesCoreRun(t *testing.T) {
	var arena SimArena
	for _, seed := range []uint64{3, 14, 159} {
		sc := testScenario(seed, 300)
		want, err := core.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := arena.Run(testScenario(seed, 300))
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, want, got, "arena reuse")
	}
}

// TestResultsOutliveArenaReuse pins the ownership contract: a Result
// handed out of an arena must not alias arena memory, so it survives
// the arena's next run untouched.
func TestResultsOutliveArenaReuse(t *testing.T) {
	var arena SimArena
	first, err := arena.Run(testScenario(5, 200))
	if err != nil {
		t.Fatal(err)
	}
	wantLen := first.Log.Len()
	wantFirst := first.Log.Records[0]
	if _, err := arena.Run(testScenario(99, 400)); err != nil {
		t.Fatal(err)
	}
	if first.Log.Len() != wantLen || first.Log.Records[0] != wantFirst {
		t.Fatal("earlier result mutated by arena reuse: Result aliases arena memory")
	}
}

// TestRunManyMatchesSequential compares the pooled arena fan-out
// against the sequential allocate-fresh path — the byte-identity
// contract of runner.MapCtxPool locals.
func TestRunManyMatchesSequential(t *testing.T) {
	var scenarios []core.Scenario
	for seed := uint64(0); seed < 6; seed++ {
		scenarios = append(scenarios, testScenario(seed, 200))
	}
	want, err := core.RunMany(scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMany(scenarios, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		requireEqualResults(t, want[i], got[i], "pooled fan-out")
	}
}

// forkReference runs prefix + suffix as a straight two-phase run on a
// fresh system: build, run the prefix out, extend, run again. This is
// the ground truth a snapshot fork must match (a single merged stream
// is *not* equivalent — event sequence numbers interleave differently).
func forkReference(t testing.TB, sc core.Scenario, suffixes [][]simtime.Time) *core.Result {
	sys, err := core.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunToCompletion(core.Horizon(sc)); err != nil {
		t.Fatal(err)
	}
	last := sys.Now()
	for i, sfx := range suffixes {
		if len(sfx) == 0 {
			continue
		}
		if err := sys.ExtendArrivals(i, sfx); err != nil {
			t.Fatal(err)
		}
		if e := sfx[len(sfx)-1]; e > last {
			last = e
		}
	}
	if err := sys.RunToCompletion(last.Add(1000 * sc.CycleLength())); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return core.ReportOwned(sys)
}

// suffixAfter generates a seeded arrival suffix strictly after the fork
// point.
func suffixAfter(from simtime.Time, seed uint64, stream uint64, mean, dmin simtime.Duration, n int) []simtime.Time {
	out := workload.Timestamps(workload.ExponentialClamped(rng.NewStream(seed, stream), mean, dmin, n))
	for i := range out {
		out[i] = out[i].Add(from.Sub(0) + us(500))
	}
	return out
}

// checkForkDeterminism is the core property: snapshot → fork → run is
// byte-identical to a straight two-phase run from cycle zero, for any
// seed and fork point, and repeatably so from the same snapshot.
func checkForkDeterminism(t testing.TB, seed uint64, prefixEvents, suffixEvents int) {
	var arena SimArena
	c, err := arena.ForkCampaign(testScenario(seed, prefixEvents))
	if err != nil {
		t.Fatal(err)
	}
	suffixes := [][]simtime.Time{
		suffixAfter(c.Now(), seed, 21, us(1344), us(1344), suffixEvents),
		suffixAfter(c.Now(), seed, 22, us(2000), us(400), suffixEvents/2),
	}
	want := forkReference(t, testScenario(seed, prefixEvents), suffixes)
	for trial := 0; trial < 2; trial++ {
		got, err := c.Cell(suffixes)
		if err != nil {
			t.Fatal(err)
		}
		if got.Summary != (tracerec.Summary{}) {
			t.Fatal("Cell summarized its records; the cell contract leaves Summary zero")
		}
		requireEqualResults(t, want, joinFork(c, got), "warm-prefix fork")
	}
}

// joinFork reassembles a whole-run result from a cell: the campaign's
// prefix records followed by the cell's own, summarized as one log.
func joinFork(c *Campaign, cell *core.Result) *core.Result {
	full := *cell
	records := append(append([]tracerec.Record(nil), c.Prefix()...), cell.Log.Records...)
	full.Log = &tracerec.Log{Records: records}
	full.Summary = full.Log.Summarize()
	return &full
}

func TestForkCampaignMatchesStraightRun(t *testing.T) {
	for _, tc := range []struct {
		seed           uint64
		prefix, suffix int
	}{
		{seed: 1, prefix: 150, suffix: 80},
		{seed: 2, prefix: 10, suffix: 200},
		{seed: 3, prefix: 400, suffix: 5},
	} {
		checkForkDeterminism(t, tc.seed, tc.prefix, tc.suffix)
	}
}

// FuzzForkDeterminism fuzzes the fork-determinism property over seeds
// and fork points. The seed corpus runs in every `go test` (including
// the -race tier-1 pass); `go test -fuzz=FuzzForkDeterminism` explores
// further.
func FuzzForkDeterminism(f *testing.F) {
	f.Add(uint64(5), uint8(100), uint8(50))
	f.Add(uint64(1234), uint8(3), uint8(180))
	f.Add(uint64(42), uint8(250), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, prefixEvents, suffixEvents uint8) {
		checkForkDeterminism(t, seed, int(prefixEvents)+2, int(suffixEvents)+2)
	})
}

// TestStaleCampaignCellFails pins the fork's validity contract: once
// the arena builds another scenario, the campaign's snapshot no longer
// matches the arena's system, and Cell must refuse instead of restoring
// into it.
func TestStaleCampaignCellFails(t *testing.T) {
	var arena SimArena
	c, err := arena.ForkCampaign(testScenario(11, 120))
	if err != nil {
		t.Fatal(err)
	}
	sfx := [][]simtime.Time{suffixAfter(c.Now(), 11, 21, us(1344), us(1344), 40), nil}
	if _, err := c.Cell(sfx); err != nil {
		t.Fatal(err)
	}
	if _, err := arena.Run(testScenario(12, 90)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cell(sfx); err == nil || !strings.Contains(err.Error(), "stale campaign") {
		t.Fatalf("Cell on a campaign whose arena ran another scenario: err = %v, want a stale-campaign error", err)
	}
	// A fresh fork on the same arena is valid again.
	c2, err := arena.ForkCampaign(testScenario(11, 120))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Cell(sfx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cell(sfx); err == nil {
		t.Fatal("the older campaign came back to life after a re-fork")
	}
}

// TestCellRejectsWrongSuffixCount pins the Cell argument contract.
func TestCellRejectsWrongSuffixCount(t *testing.T) {
	var arena SimArena
	c, err := arena.ForkCampaign(testScenario(8, 50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cell([][]simtime.Time{nil}); err == nil {
		t.Fatal("Cell accepted a suffix slice not covering every source")
	}
}
