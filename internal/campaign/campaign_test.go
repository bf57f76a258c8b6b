package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simtime"
)

func testSpec() Spec {
	return Spec{
		Faults:       []string{"babbling-idiot", "stuck-line"},
		Intensities:  IntensityRange{Min: 0.25, Max: 1.0, Steps: 2},
		Seeds:        SeedRange{Base: 1, Count: 2},
		PrefixEvents: 60,
		SuffixEvents: 25,
	}
}

// TestSpecNormalizeDefaults pins the default grammar.
func TestSpecNormalizeDefaults(t *testing.T) {
	var sp Spec
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(sp.Faults) != 5 || sp.Intensities.Steps != 4 || sp.Seeds.Count != 1 ||
		sp.PrefixSeed != 2014 || sp.PrefixEvents != 400 || sp.SuffixEvents != 120 {
		t.Fatalf("unexpected defaults: %+v", sp)
	}
	if sp.Cells() != 20 || sp.Buckets() != 20 {
		t.Fatalf("default expansion: cells %d buckets %d", sp.Cells(), sp.Buckets())
	}
}

// TestSpecNormalizeRejects pins the validation errors.
func TestSpecNormalizeRejects(t *testing.T) {
	bad := []Spec{
		{Faults: []string{"no-such-model"}},
		{Faults: []string{"babbling-idiot", "babbling-idiot"}},
		{Intensities: IntensityRange{Min: 0.5, Max: 0.25, Steps: 2}},
		{Intensities: IntensityRange{Min: 0, Max: 2, Steps: 2}},
		{Intensities: IntensityRange{Min: 0.2, Max: 0.8, Steps: 1}},
		{Seeds: SeedRange{Base: 1, Count: -1}},
		{PrefixEvents: MaxEvents + 1},
		{SuffixEvents: -3},
		{Faults: []string{"babbling-idiot"}, Intensities: IntensityRange{Min: 0, Max: 1, Steps: 1 << 12}, Seeds: SeedRange{Base: 1, Count: 1 << 10}},
	}
	for i, sp := range bad {
		if err := sp.Normalize(); err == nil {
			t.Errorf("spec %d: expected a validation error, got none (%+v)", i, sp)
		}
	}
}

// TestExpandDeterministic pins the cell ordering contract: fault-major,
// then intensity, then seed, with the bucket index = cell/seedCount.
func TestExpandDeterministic(t *testing.T) {
	sp := testSpec()
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells := sp.Expand()
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	want := []Cell{
		{Index: 0, Fault: "babbling-idiot", Intensity: 0.25, Seed: 1},
		{Index: 1, Fault: "babbling-idiot", Intensity: 0.25, Seed: 2},
		{Index: 2, Fault: "babbling-idiot", Intensity: 1.0, Seed: 1},
		{Index: 3, Fault: "babbling-idiot", Intensity: 1.0, Seed: 2},
		{Index: 4, Fault: "stuck-line", Intensity: 0.25, Seed: 1},
		{Index: 5, Fault: "stuck-line", Intensity: 0.25, Seed: 2},
		{Index: 6, Fault: "stuck-line", Intensity: 1.0, Seed: 1},
		{Index: 7, Fault: "stuck-line", Intensity: 1.0, Seed: 2},
	}
	for i, c := range cells {
		if c != want[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, c, want[i])
		}
	}
	again := sp.Expand()
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("expansion not deterministic at cell %d", i)
		}
	}
}

// TestCellSpecDedupeAcrossCampaigns pins that CellSpec excludes the
// campaign context: the same (fault, intensity, seed, prefix, suffix)
// tuple from two different specs is the same document, so the serve
// tier dedupes it.
func TestCellSpecDedupeAcrossCampaigns(t *testing.T) {
	a := testSpec()
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Faults = []string{"stuck-line"} // different campaign shape
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	ca := a.CellSpec(a.Expand()[4]) // stuck-line @0.25 seed 1 in a
	cb := b.CellSpec(b.Expand()[0]) // the same cell in b
	if ca != cb {
		t.Fatalf("identical cells differ across campaigns: %+v vs %+v", ca, cb)
	}
	ja, _ := json.Marshal(ca)
	jb, _ := json.Marshal(cb)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("cell documents differ: %s vs %s", ja, jb)
	}
}

// TestWarmColdByteIdentity is the fork-equivalence check at the
// campaign layer: for every cell of a small campaign, the warm-prefix
// Runner and the cold two-phase reference produce byte-identical wire
// documents. jitter-drift joins the shared spec's two faults because
// its suffix compresses the period below dmin gradually instead of
// adding or silencing IRQs.
func TestWarmColdByteIdentity(t *testing.T) {
	sp := testSpec()
	sp.Faults = append(sp.Faults, "jitter-drift")
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	for _, c := range sp.Expand() {
		cs := sp.CellSpec(c)
		warm, err := r.Run(cs)
		if err != nil {
			t.Fatalf("warm cell %d: %v", c.Index, err)
		}
		cold, err := RunCellCold(cs)
		if err != nil {
			t.Fatalf("cold cell %d: %v", c.Index, err)
		}
		jw, _ := json.Marshal(warm)
		jc, _ := json.Marshal(cold)
		if !bytes.Equal(jw, jc) {
			t.Fatalf("cell %d (%s@%g seed %d): warm fork diverges from cold replay\nwarm: %s\ncold: %s",
				c.Index, c.Fault, c.Intensity, c.Seed, jw, jc)
		}
		if warm.Count == 0 {
			t.Fatalf("cell %d: no suffix victim deliveries recorded", c.Index)
		}
	}
}

// TestRunnerDeterministic pins that re-running a cell on the same
// Runner (snapshot restore path) and on a fresh Runner (new fork)
// yields identical documents.
func TestRunnerDeterministic(t *testing.T) {
	sp := testSpec()
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	cs := sp.CellSpec(sp.Expand()[3])
	r := NewRunner()
	a, err := r.Run(cs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(cs) // same runner, restore path
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRunner().Run(cs) // fresh fork
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	jc, _ := json.Marshal(c)
	if !bytes.Equal(ja, jb) || !bytes.Equal(ja, jc) {
		t.Fatalf("cell result not stable across runs:\n%s\n%s\n%s", ja, jb, jc)
	}
}

// TestAggregateShuffledFold is the campaign-layer commutativity
// property: merging the same cell results in any completion order
// yields a byte-identical encoded aggregate.
func TestAggregateShuffledFold(t *testing.T) {
	sp := testSpec()
	agg, err := NewAggregate(sp)
	if err != nil {
		t.Fatal(err)
	}
	cells := agg.Spec.Expand()
	r := NewRunner()
	results := make([]*CellResult, len(cells))
	for i, c := range cells {
		if results[i], err = r.Run(agg.Spec.CellSpec(c)); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	fold := func(order []int) []byte {
		a, err := NewAggregate(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := a.MergeCell(i, results[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !a.Complete() {
			t.Fatal("aggregate not complete after merging every cell")
		}
		buf, err := json.Marshal(encodableAggregate(a))
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	sequential := make([]int, len(cells))
	for i := range sequential {
		sequential[i] = i
	}
	reference := fold(sequential)
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		if got := fold(rnd.Perm(len(cells))); !bytes.Equal(got, reference) {
			t.Fatalf("trial %d: shuffled fold diverges\ngot:  %s\nwant: %s", trial, got, reference)
		}
	}
}

// encodableAggregate projects the aggregate's exported state into a
// json.Marshal-able view (the Sketch itself is opaque; its pairs are
// the wire form).
func encodableAggregate(a *Aggregate) any {
	return struct {
		Done, Errors, Violations    int
		Count, MinCycles, MaxCycles int64
		SumCycles                   int64
		Grants, Denied              uint64
		Sketch                      []SketchBucket
		Buckets                     []BucketAgg
		Repros                      []Repro
	}{
		a.Done, a.Errors, a.Violations,
		a.Count, a.MinCycles, a.MaxCycles, a.SumCycles,
		a.Grants, a.Denied, a.Latency.Pairs(), a.Buckets, a.Repros,
	}
}

// TestAggregateRejectsDoubleMerge pins the orchestration guard.
func TestAggregateRejectsDoubleMerge(t *testing.T) {
	sp := testSpec()
	agg, err := NewAggregate(sp)
	if err != nil {
		t.Fatal(err)
	}
	cr := &CellResult{Spec: agg.Spec.CellSpec(agg.Spec.Expand()[0]), Pass: true}
	if err := agg.MergeCell(0, cr); err != nil {
		t.Fatal(err)
	}
	if err := agg.MergeCell(0, cr); err == nil {
		t.Fatal("double merge accepted")
	}
	if err := agg.MergeFailure(99, "nope"); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := agg.MergeFailure(1, "cell exploded"); err != nil {
		t.Fatal(err)
	}
	if agg.Errors != 1 || agg.Done != 2 {
		t.Fatalf("errors %d done %d, want 1 and 2", agg.Errors, agg.Done)
	}
}

// TestReproRetention pins min-index retention: with more violations
// than MaxRepros, the lowest indices survive regardless of merge order.
func TestReproRetention(t *testing.T) {
	sp := Spec{
		Faults:      []string{"babbling-idiot"},
		Intensities: IntensityRange{Min: 0.5, Max: 0.5, Steps: 1},
		Seeds:       SeedRange{Base: 1, Count: MaxRepros + 9},
	}
	agg, err := NewAggregate(sp)
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewSource(5)).Perm(agg.TotalCells)
	for _, i := range order {
		cr := &CellResult{
			Spec:      agg.Spec.CellSpec(agg.Spec.Expand()[i]),
			Pass:      false,
			Violation: "synthetic",
		}
		if err := agg.MergeCell(i, cr); err != nil {
			t.Fatal(err)
		}
	}
	if len(agg.Repros) != MaxRepros {
		t.Fatalf("retained %d repros, want %d", len(agg.Repros), MaxRepros)
	}
	for i, r := range agg.Repros {
		if r.Index != i {
			t.Fatalf("repro %d has index %d; lowest indices should survive", i, r.Index)
		}
	}
}

// TestFoldMatchesManualMerge pins Fold against a by-hand sequential
// run+merge, across worker counts.
func TestFoldMatchesManualMerge(t *testing.T) {
	sp := testSpec()
	seq, err := Fold(context.Background(), sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fold(context.Background(), sp, 4)
	if err != nil {
		t.Fatal(err)
	}
	js, _ := json.Marshal(encodableAggregate(seq))
	jp, _ := json.Marshal(encodableAggregate(par))
	if !bytes.Equal(js, jp) {
		t.Fatalf("parallel fold diverges from sequential:\n%s\n%s", js, jp)
	}
	if !seq.Complete() || seq.Done != 8 {
		t.Fatalf("fold incomplete: %+v", seq)
	}
}

// TestRunnerInterleavesKinds pins that a diffuzz cell between two chaos
// cells of one prefix group does not corrupt the warm fork: the diffuzz
// cell rebuilds the Runner's arena, so the second chaos cell must
// re-fork and produce the same bytes as the first.
func TestRunnerInterleavesKinds(t *testing.T) {
	cs := CellSpec{Fault: "babbling-idiot", Intensity: 0.5, Seed: 3,
		PrefixSeed: 2014, PrefixEvents: 300, SuffixEvents: 100}
	dz := CellSpec{Kind: KindDiffuzz, Class: "sporadic", Events: 200, Seed: 5}
	r := NewRunner()
	a, err := r.Run(cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(dz); err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(cs)
	if err != nil {
		t.Fatalf("chaos cell after a diffuzz cell: %v", err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("chaos cell changed after a diffuzz cell ran on the same Runner:\n%s\n%s", ja, jb)
	}
}

// TestFailedCellFingerprint drives both verdict failures through
// deriveResult with doctored cell results and checks that the
// fingerprint names the whole single-phase scenario: the prefix
// scenario regenerated from the spec with the suffixes appended.
func TestFailedCellFingerprint(t *testing.T) {
	cs := CellSpec{Fault: "jitter-drift", Intensity: 0.75, Seed: 9,
		PrefixSeed: 2014, PrefixEvents: 120, SuffixEvents: 60}
	r := NewRunner()
	if _, err := r.Run(cs); err != nil {
		t.Fatal(err)
	}
	sfx, err := cs.suffixes(r.group.forkT)
	if err != nil {
		t.Fatal(err)
	}
	sc := prefixScenario(cs.PrefixSeed, cs.PrefixEvents)
	for i := range sc.IRQs {
		sc.IRQs[i].Arrivals = append(append([]simtime.Time(nil), sc.IRQs[i].Arrivals...), sfx[i]...)
	}
	want, err := core.Fingerprint(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, violation string
		doctor          func(*core.Result)
	}{
		{"interference", "exceeds eq. (14) budget", func(res *core.Result) {
			res.Partitions[cellVictim].StolenInterposed = simtime.Infinity / 4
		}},
		{"victim latency", "exceeds analytic bound", func(res *core.Result) {
			for i := range res.Log.Records {
				if res.Log.Records[i].Source == cellVictim {
					res.Log.Records[i].Done = res.Log.Records[i].Arrival.Add(simtime.Second)
					return
				}
			}
			t.Fatal("no suffix victim record to doctor")
		}},
	} {
		res, err := r.camp.Cell(sfx)
		if err != nil {
			t.Fatal(err)
		}
		tc.doctor(res)
		cr, err := deriveResult(cs, r.group, sfx, res)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Pass || !strings.Contains(cr.Violation, tc.violation) {
			t.Fatalf("%s: pass %v violation %q, want a %q failure", tc.name, cr.Pass, cr.Violation, tc.violation)
		}
		if cr.Fingerprint != want {
			t.Fatalf("%s: fingerprint %s, want %s", tc.name, cr.Fingerprint, want)
		}
	}
}
