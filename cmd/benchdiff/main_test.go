package main

import (
	"io"
	"strings"
	"testing"
)

// baseline is one-P `go test -bench` output in the committed evidence
// format, two repetitions per tracked benchmark.
const baseline = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkFig6a                	     429	   3338627 ns/op	        55.48 delayed_%	         0.3427 gc/op	      8093 max_µs	      2313 mean_µs	 1014824 B/op	     134 allocs/op
BenchmarkFig6a                	     350	   3305896 ns/op	        55.48 delayed_%	         0.3629 gc/op	      8093 max_µs	      2313 mean_µs	 1014827 B/op	     134 allocs/op
BenchmarkSimulationThroughput 	    1210	    839602 ns/op	   2382126 IRQs/s	         0.04050 gc/op	  136048 B/op	      62 allocs/op
BenchmarkSimulationThroughput 	    2528	    515828 ns/op	   3877270 IRQs/s	         0.03837 gc/op	  136048 B/op	      62 allocs/op
BenchmarkDESEventThroughput   	55295772	        22.05 ns/op	         0 gc/op	       0 B/op	       0 allocs/op
BenchmarkDESEventThroughput   	56685582	        19.19 ns/op	         0 gc/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	17.833s
`

func mustParse(t *testing.T, texts ...string) map[string]metrics {
	t.Helper()
	m := map[string]metrics{}
	for _, s := range texts {
		if err := parse(strings.NewReader(s), m); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestParse(t *testing.T) {
	got := mustParse(t, baseline)
	for _, tc := range []struct {
		name, unit string
		want       float64
	}{
		{"DESEventThroughput", "ns/op", 19.19}, // fractional, min of 22.05 and 19.19
		{"DESEventThroughput", "allocs/op", 0},
		{"Fig6a", "ns/op", 3305896}, // min over repeated lines
		{"Fig6a", "mean_µs", 2313},
		{"Fig6a", "delayed_%", 55.48},
		{"Fig6a", "gc/op", 0.3427},
		{"Fig6a", "B/op", 1014824},
		{"SimulationThroughput", "IRQs/s", 2382126},
		{"SimulationThroughput", "allocs/op", 62},
	} {
		v, ok := got[tc.name][tc.unit]
		if !ok || v != tc.want {
			t.Errorf("%s %s = %v (present %v), want %v", tc.name, tc.unit, v, ok, tc.want)
		}
	}
	if len(got) != 3 {
		t.Errorf("parsed %d benchmarks, want 3 (header, PASS and ok lines are not results): %v", len(got), got)
	}
}

func TestParseRejectsUnpairedValue(t *testing.T) {
	err := parse(strings.NewReader("BenchmarkFig6a 10 3338627 ns/op 134\n"), map[string]metrics{})
	if err == nil {
		t.Fatal("a value without a unit parsed cleanly")
	}
}

// TestParseSkipsNonResultLines: a failed benchmark prints its name with
// no iteration count; that is not a measurement, so the tracked name is
// then missing rather than silently zero.
func TestParseSkipsNonResultLines(t *testing.T) {
	got := mustParse(t, "BenchmarkFig6a \t--- FAIL: BenchmarkFig6a\n    bench_test.go:12: boom\n")
	if len(got) != 0 {
		t.Fatalf("non-result lines parsed as %v", got)
	}
}

// TestParseKeepsProcsSuffix: names keep their -N GOMAXPROCS suffix, so
// a two-P line never merges with or stands in for a one-P one.
func TestParseKeepsProcsSuffix(t *testing.T) {
	got := mustParse(t, baseline, "BenchmarkFig6a-2 \t 300 \t 2000000 ns/op \t 187 allocs/op\n")
	if got["Fig6a"]["allocs/op"] != 134 || got["Fig6a-2"]["allocs/op"] != 187 {
		t.Fatalf("Fig6a = %v, Fig6a-2 = %v", got["Fig6a"], got["Fig6a-2"])
	}
}

// set returns baseline text with the first line of benchmark name
// replaced by repl, and its other lines dropped.
func set(name, repl string) string {
	var out []string
	done := false
	for _, l := range strings.Split(baseline, "\n") {
		if f := strings.Fields(l); len(f) > 0 && f[0] == "Benchmark"+name {
			if !done {
				out = append(out, repl)
				done = true
			}
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

func TestCompare(t *testing.T) {
	best := mustParse(t, baseline)
	for _, tc := range []struct {
		name   string
		fresh  string
		rebase map[string]float64
		pass   bool
		report string // a substring the report must contain
	}{
		{name: "identical", fresh: baseline, pass: true},
		{
			name:  "fresh minimum over repeated lines",
			fresh: baseline + "BenchmarkFig6a 400 9999999 ns/op 999 allocs/op\n",
			pass:  true,
		},
		{
			name: "unpinned run is missing",
			fresh: strings.NewReplacer(
				"BenchmarkFig6a ", "BenchmarkFig6a-2 ",
				"BenchmarkSimulationThroughput ", "BenchmarkSimulationThroughput-2 ",
				"BenchmarkDESEventThroughput ", "BenchmarkDESEventThroughput-2 ",
			).Replace(baseline),
			report: "Fig6a                  MISSING",
		},
		{
			name:   "missing tracked benchmark",
			fresh:  set("SimulationThroughput", ""),
			report: "SimulationThroughput   MISSING",
		},
		{
			name:   "missing allocs/op (run without -benchmem)",
			fresh:  set("DESEventThroughput", "BenchmarkDESEventThroughput 50000000 19.19 ns/op"),
			report: "allocs/op  MISSING",
		},
		{
			name:   "planted DES allocation 0 -> 1",
			fresh:  set("DESEventThroughput", "BenchmarkDESEventThroughput 50000000 19.19 ns/op 16 B/op 1 allocs/op"),
			report: "REGRESSION",
		},
		{
			name:   "Fig6a allocs/op +15%",
			fresh:  set("Fig6a", "BenchmarkFig6a 400 3305896 ns/op 154 allocs/op"),
			report: "REGRESSION",
		},
		{
			name:  "Fig6a allocs/op within 10% plus slack",
			fresh: set("Fig6a", "BenchmarkFig6a 400 3305896 ns/op 149 allocs/op"),
			pass:  true,
		},
		{
			name:   "DES ns/op +25%",
			fresh:  set("DESEventThroughput", "BenchmarkDESEventThroughput 50000000 24 ns/op 0 allocs/op"),
			report: "REGRESSION",
		},
		{
			name:   "rebase raises ns/op",
			fresh:  set("Fig6a", "BenchmarkFig6a 300 3900000 ns/op 134 allocs/op"),
			rebase: map[string]float64{"Fig6a": 4000000},
			pass:   true,
			report: "rebased 3305896.0 → 4000000.0",
		},
		{
			name:   "rebase never lowers ns/op",
			fresh:  baseline,
			rebase: map[string]float64{"Fig6a": 1000},
			pass:   true,
		},
		{
			name:   "rebase leaves allocs/op alone",
			fresh:  set("Fig6a", "BenchmarkFig6a 300 3305896 ns/op 154 allocs/op"),
			rebase: map[string]float64{"Fig6a": 4000000},
			report: "REGRESSION",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			pass := compare(&out, mustParse(t, tc.fresh), best, tc.rebase, 0.10)
			if pass != tc.pass {
				t.Errorf("compare = %v, want %v\n%s", pass, tc.pass, out.String())
			}
			if !strings.Contains(out.String(), tc.report) {
				t.Errorf("report lacks %q:\n%s", tc.report, out.String())
			}
		})
	}
}

// TestCompareNoBaselineSkips: a tracked benchmark without any baseline
// is reported and skipped, as before a first baseline is committed.
func TestCompareNoBaselineSkips(t *testing.T) {
	best := mustParse(t, set("Fig6a", ""))
	if !compare(io.Discard, mustParse(t, baseline), best, nil, 0.10) {
		t.Fatal("a benchmark without a baseline failed the gate")
	}
}
