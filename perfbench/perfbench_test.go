package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 || in[0] != 3 {
		t.Errorf("median = %v (input now %v), want 2 with the input untouched", got, in)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50]; a third covers
		// [90, 120] but only [90, 100] lies inside the parent.
		{ID: 2, Parent: 1, Name: "child", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "child", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15 * ms, End: 20 * ms},
	}
	lt := selfTimes(spans)
	if got, want := lt["root"].Self, 50*ms; got != want {
		t.Errorf("root self = %v, want %v", got, want)
	}
	if got, want := lt["child"].Total, 80*ms; got != want {
		t.Errorf("child total = %v, want %v", got, want)
	}
	if got, want := lt["child"].Self, 75*ms; got != want {
		t.Errorf("child self = %v, want %v", got, want)
	}
	if lt["child"].Count != 3 || lt["grandchild"].Self != 5*ms {
		t.Errorf("unexpected fold: %+v", lt)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestScheduleIsOpenLoop(t *testing.T) {
	due := schedule(200, time.Second)
	if len(due) != 200 {
		t.Fatalf("%d slots, want 200", len(due))
	}
	for i, d := range due {
		if want := time.Duration(i) * 5 * time.Millisecond; d != want {
			t.Fatalf("slot %d due at %v, want %v", i, d, want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One sender and a first request that stalls: the requests queued
	// behind it are charged the stall, and the generator reports lag.
	due := schedule(1000, 5*time.Millisecond) // 5 slots, 1 ms apart
	var calls atomic.Int32
	stall := 20 * time.Millisecond
	fail := errors.New("refused")
	samples := openLoop(time.Now(), due, 1, func(i int) error {
		calls.Add(1)
		if i == 0 {
			time.Sleep(stall)
		}
		if i == 4 {
			return fail
		}
		return nil
	})
	if calls.Load() != 5 {
		t.Fatalf("%d calls, want 5 (no retries)", calls.Load())
	}
	if s := samples[1]; s.Lat < stall-2*time.Millisecond || s.Lag < stall-2*time.Millisecond {
		t.Errorf("request behind a stall: lat %v lag %v, want both >= ~%v", s.Lat, s.Lag, stall-time.Millisecond)
	}
	if !errors.Is(samples[4].Err, fail) {
		t.Errorf("refusal not reported: %v", samples[4].Err)
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# TYPE repro_a counter
repro_a 3
# TYPE repro_h histogram
repro_h_bucket{le="0.1"} 1
repro_h_bucket{le="+Inf"} 2
repro_h_sum 0.25
repro_h_count 2
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader("repro_a 10\nrepro_h_sum 1.25\nrepro_h_count 6\nrepro_new 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	for k, want := range map[string]float64{"repro_a": 7, "repro_h_sum": 1, "repro_h_count": 4, "repro_new": 4} {
		if d[k] != want {
			t.Errorf("delta[%s] = %v, want %v", k, d[k], want)
		}
	}
	if before[`repro_h_bucket{le="+Inf"}`] != 2 {
		t.Errorf("labelled series not parsed: %v", before)
	}
	if _, err := parseProm(strings.NewReader("repro_a x\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

// TestBenchmarkJSONMirrorsTables keeps BENCHMARK.json and the metric
// tables the binary prints in step.
func TestBenchmarkJSONMirrorsTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), binary %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}
