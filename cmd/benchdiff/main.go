// Command benchdiff gates performance regressions: it compares fresh
// `go test -bench` output against the best (minimum) committed value of
// each tracked benchmark in the BENCH_PR*.txt evidence files, and exits
// non-zero when ns/op or allocs/op regressed by more than the allowed
// fraction. scripts/benchdiff.sh is the CI entry point; it and
// `make bench-report` both measure with
//
//	go test -run '^$' -bench '...' -benchmem -count 3 -cpu 1 .
//
// Pinning to one P makes allocs/op independent of the host's CPU
// count: Fig6a fans its loads out over GOMAXPROCS workers, and each
// extra worker adds allocations.
//
// An entry is keyed by its printed name with the Benchmark prefix
// stripped and any -N GOMAXPROCS suffix kept, so a line measured at
// two Ps (Fig6a-2) is never compared with a one-P baseline (Fig6a),
// and an unpinned fresh run reports the tracked benchmarks as MISSING.
// Each metric of a name is the minimum over every line with that name:
// the -count repetitions, a paired rerun appended to the same file, and
// for the baseline every evidence file. A tracked benchmark missing
// from the fresh output is an error (a silently dropped measurement is
// itself a regression of the evidence).
//
// Usage:
//
//	benchdiff -new fresh.txt [-max-regress 0.10]
//	          [-rebase BENCH_REBASE.json] [baseline.txt ...]
//
// With no baseline arguments, BENCH_PR*.txt in the working directory
// (minus the -new file itself) is used. The older BENCH_PR*.json files
// are historical records of a removed harness and are not read.
//
// A committed BENCH_REBASE.json sentinel raises the effective ns/op
// baseline of a named benchmark (never allocs/op: at one P alloc
// counts do not depend on the host, so drift cannot explain an alloc
// regression). The sentinel is reviewable evidence: it must say why
// and since when, and it can only loosen timings up to its recorded
// value, not silence the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// tracked is the closed set of regression-gated benchmarks: the macro
// figure path, the single-scenario pipeline, and the DES hot path.
var tracked = []string{"Fig6a", "SimulationThroughput", "DESEventThroughput"}

// gated are the units compared against the baseline.
var gated = []string{"ns/op", "allocs/op"}

// metrics maps a unit ("ns/op", "allocs/op", "B/op" or a
// b.ReportMetric unit such as "mean_µs") to its value.
type metrics map[string]float64

// parse reads `go test -bench` output into into, keyed by benchmark
// name without the Benchmark prefix, keeping per unit the minimum over
// every result line with that name. Other lines (goos:, pkg:, PASS,
// ok, log output, "--- FAIL") are skipped.
func parse(r io.Reader, into map[string]metrics) error {
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseUint(f[1], 10, 64); err != nil {
			continue // no iteration count: not a result line
		}
		if len(f)%2 != 0 {
			return fmt.Errorf("line %d: value without unit: %q", n, sc.Text())
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		m := into[name]
		if m == nil {
			m = metrics{}
			into[name] = m
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return fmt.Errorf("line %d: %v", n, err)
			}
			if old, seen := m[f[i+1]]; !seen || v < old {
				m[f[i+1]] = v
			}
		}
	}
	return sc.Err()
}

func parseFile(path string, into map[string]metrics) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := parse(f, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadRebase reads the BENCH_REBASE.json sentinel: a reviewed,
// committed acknowledgement that the timing baseline of a benchmark no
// longer reflects the current environment. It returns the rebased
// ns/op per benchmark; a missing file means no rebase.
func loadRebase(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rb struct {
		Reason  string             `json:"reason"`
		Since   string             `json:"since"`
		NsPerOp map[string]float64 `json:"ns_per_op"`
	}
	if err := json.Unmarshal(buf, &rb); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rb.Reason == "" || rb.Since == "" {
		return nil, fmt.Errorf("%s: a rebase sentinel must record reason and since", path)
	}
	fmt.Printf("timing rebase in effect (%s, since %s): %s\n", path, rb.Since, rb.Reason)
	return rb.NsPerOp, nil
}

// compare gates the gated units of every tracked benchmark in fresh
// against best, with rebase raising ns/op baselines only. It writes one
// row per check to w and reports whether all of them passed.
//
// The limit is base·(1+maxRegress), plus 2 when base is non-zero so
// that a near-zero alloc count does not fail on one incidental
// allocation. A zero baseline gets no slack: a single allocation in
// the DES step is exactly the regression the gate exists to catch.
func compare(w io.Writer, fresh, best map[string]metrics, rebase map[string]float64, maxRegress float64) bool {
	ok := true
	for _, name := range tracked {
		got, found := fresh[name]
		if !found {
			fmt.Fprintf(w, "%-22s MISSING from the fresh run\n", name)
			ok = false
			continue
		}
		base, found := best[name]
		if !found {
			fmt.Fprintf(w, "%-22s no baseline — skipped\n", name)
			continue
		}
		for _, unit := range gated {
			g, haveGot := got[unit]
			b, haveBase := base[unit]
			switch {
			case !haveGot:
				fmt.Fprintf(w, "%-22s %-10s MISSING from the fresh run\n", name, unit)
				ok = false
				continue
			case !haveBase:
				fmt.Fprintf(w, "%-22s %-10s no baseline — skipped\n", name, unit)
				continue
			}
			if rb := rebase[name]; unit == "ns/op" && rb > b {
				fmt.Fprintf(w, "%-22s ns/op baseline rebased %.1f → %.1f\n", name, b, rb)
				b = rb
			}
			limit := b * (1 + maxRegress)
			if b > 0 {
				limit += 2
			}
			status := "ok"
			if g > limit {
				status = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-22s %-10s %12.1f  best %12.1f  limit %12.1f  %s\n", name, unit, g, b, limit, status)
		}
	}
	return ok
}

func main() {
	newPath := flag.String("new", "", "fresh go test -bench output to gate (required)")
	maxRegress := flag.Float64("max-regress", 0.10, "allowed fractional regression per metric")
	rebasePath := flag.String("rebase", "BENCH_REBASE.json", "timing rebase sentinel; a missing file means no rebase")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	fresh := map[string]metrics{}
	if err := parseFile(*newPath, fresh); err != nil {
		fail(err)
	}
	rebase, err := loadRebase(*rebasePath)
	if err != nil {
		fail(err)
	}

	baselines := flag.Args()
	if len(baselines) == 0 {
		glob, err := filepath.Glob("BENCH_PR*.txt")
		if err != nil {
			fail(err)
		}
		// Abs fails only without a working directory, which Glob
		// has just read.
		newAbs, _ := filepath.Abs(*newPath)
		for _, g := range glob {
			if abs, _ := filepath.Abs(g); abs != newAbs {
				baselines = append(baselines, g)
			}
		}
	}
	if len(baselines) == 0 {
		fail(fmt.Errorf("no baseline BENCH_PR*.txt found"))
	}
	best := map[string]metrics{}
	for _, path := range baselines {
		if err := parseFile(path, best); err != nil {
			fail(err)
		}
	}

	if !compare(os.Stdout, fresh, best, rebase, *maxRegress) {
		fmt.Fprintln(os.Stderr, "benchdiff: performance regression against committed BENCH_PR*.txt evidence")
		os.Exit(1)
	}
}
