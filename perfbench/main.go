// Command perfbench is the repository's benchmark. Each named workload
// drives the simulator and the serve stack through their public APIs,
// checks every output it gets back, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run is split into an untraced half and a
// traced half; it prints the per-layer metrics, computed from spans the
// benchmark records around each layer call, plus the tracing overhead.
// See README.md for the workloads and the layer → metric map.
//
// Usage (from the repository root; run.sh builds and calls this):
//
//	perfbench --workload paper_sim --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The two tables are
// the benchmark's contract; BENCHMARK.json mirrors them (a test checks).
type metricSpec struct{ Name, Unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"sim_irqs_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
}

var perLayer = []metricSpec{
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"fail_ratio", "ratio"},
	{"experiments.fig6_ms", "ms"},
	{"experiments.fig7_ms", "ms"},
	{"experiments.overhead_ms", "ms"},
	{"engine.run_ns_per_irq", "ns"},
	{"engine.allocs_per_irq", "count"},
	{"des.ns_per_event", "ns"},
	{"des.events_per_irq", "count"},
	{"hv.ctx_switches_per_irq", "count"},
	{"hv.interposed_ratio", "ratio"},
	{"monitor.check_ns", "ns"},
	{"monitor.conforming_ratio", "ratio"},
	{"analysis.compare_us", "us"},
	{"diffuzz.scenarios_per_s", "1/s"},
	{"diffuzz.violations", "count"},
	{"diffuzz.min_gap_us", "us"},
	{"workload.ecu_trace_ms", "ms"},
	{"campaign.prefix_ms", "ms"},
	{"campaign.cell_ms", "ms"},
	{"campaign.merge_us", "us"},
	{"campaign.cells_merged", "count"},
	{"campaign.cell_cache_hits", "count"},
	{"report.encode_cell_us", "us"},
	{"report.cell_bytes", "bytes"},
	{"store.put_ms", "ms"},
	{"store.get_us", "us"},
	{"store.puts", "count"},
	{"store.bytes_on_disk", "bytes"},
	{"serve.job_exec_ms", "ms"},
	{"serve.residual_ms_per_cell", "ms"},
	{"serve.queue_depth_max", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.store_hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"serve.journal_bytes", "bytes"},
	{"serve.journal_compactions", "count"},
	{"serve.replay_s", "s"},
	{"serve.read_p99_ms", "ms"},
	{"serve.read_samples", "count"},
	{"serve.write_p99_ms", "ms"},
	{"serve.write_samples", "count"},
	{"cluster.dispatch_ratio", "ratio"},
	{"cluster.dispatch_failures", "count"},
	{"cluster.reowned", "count"},
	{"cluster.peer_fetch_hits", "count"},
	{"cluster.fetch_ms", "ms"},
	{"cluster.checksum_failures", "count"},
	{"client.hedged", "count"},
	{"client.failovers", "count"},
	{"gen.lag_ms", "ms"},
	{"gen.attempted", "count"},
	{"gen.completed", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_us_per_op", "us"},
	{"accuracy.fig6a_mean_us", "us"},
	{"accuracy.fig6b_mean_us", "us"},
	{"accuracy.fig6c_mean_us", "us"},
	{"accuracy.fig6a_err_pct", "%"},
	{"accuracy.fig6b_err_pct", "%"},
	{"accuracy.fig6c_err_pct", "%"},
}

// bench is one benchmark run: its inputs, its counters and the metrics
// it fills.
type bench struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // private scratch directory, removed when the run ends
	nproc   int

	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	checks []string // failed output checks, reported on stderr

	e2e   map[string]float64
	layer map[string]float64
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(err error) bool {
	b.attempted.Add(1)
	if err != nil {
		b.failed.Add(1)
		b.note("%v", err)
		return false
	}
	return true
}

// check counts one output check as an attempted operation; a failed
// one fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
		b.note(format, args...)
	}
}

func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.checks) < 20 {
		b.checks = append(b.checks, fmt.Sprintf(format, args...))
	}
}

// timeSetup runs set-up n times and records the median as setup_s. Every
// instance but the last is torn down; the last is returned.
func timeSetup[T any](b *bench, n int, setup func() (T, error), teardown func(T) error) (T, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == n-1 {
			last = v
			break
		}
		if err := teardown(v); err != nil {
			return last, fmt.Errorf("set-up teardown: %w", err)
		}
	}
	b.e2e["setup_s"] = median(secs)
	return last, nil
}

// costMeter measures Go runtime cost over one stretch of work.
type costMeter struct{ before runtime.MemStats }

func startCost() *costMeter {
	c := &costMeter{}
	runtime.ReadMemStats(&c.before)
	return c
}

// stop records the runtime cost totals and per-op costs (ops is the
// workload's unit: simulated IRQ, cell or request).
func (c *costMeter) stop(b *bench, ops float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	gcs := float64(after.NumGC - c.before.NumGC)
	pause := float64(after.PauseTotalNs-c.before.PauseTotalNs) / 1e6
	b.layer["go.gc_cycles"] = gcs
	b.layer["go.gc_pause_ms"] = pause
	b.layer["go.alloc_mb"] = float64(after.TotalAlloc-c.before.TotalAlloc) / (1 << 20)
	b.layer["go.allocs_per_op"] = ratio(float64(after.Mallocs-c.before.Mallocs), ops)
	b.layer["go.gc_cycles_per_op"] = ratio(gcs, ops)
	b.layer["go.gc_pause_us_per_op"] = ratio(pause*1000, ops)
}

// windowDone records max_rss_mb when a workload's measured pass ends:
// the peak over set-up and the workload, before the output checks'
// in-process reference runs can raise it.
func (b *bench) windowDone() { b.e2e["max_rss_mb"] = maxRSSMB() }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var workloads = map[string]func(*bench) error{
	"paper_sim":        runPaperSim,
	"campaign_durable": runCampaignDurable,
	"serve_mix":        runServeMix,
	"ring_campaign":    runRingCampaign,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for run-private data")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown workload %q (have %v)", *name, names)
	}
	dir, err := os.MkdirTemp(*workdir, "run-*")
	if err != nil {
		fatalf("%v", err)
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		dir:     dir,
		nproc:   runtime.NumCPU(),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
	}
	err = run(b)
	rmErr := os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if rmErr != nil {
		fatalf("removing %s: %v", dir, rmErr)
	}
	att, failed := b.attempted.Load(), b.failed.Load()
	b.e2e["ok_ratio"] = ratio(float64(att-failed), float64(att))
	b.layer["fail_ratio"] = ratio(float64(failed), float64(att))

	res := result{Correct: failed == 0 && att > 0, Attempted: att, Failed: failed, Metrics: map[string]metricValue{}}
	specs, values := endToEnd, b.e2e
	if b.trace {
		specs, values = perLayer, b.layer
	}
	for _, m := range specs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", m.Name, v)
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, c := range b.checks {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// finishTrace writes a traced run's spans (kept in memory until now)
// beside the run directory and returns their per-name self times.
func (b *bench) finishTrace(tr *tracer) map[string]layerTime {
	spans := tr.snapshot()
	b.layer["trace.spans"] = float64(len(spans))
	path := filepath.Join(filepath.Dir(b.dir), "spans.jsonl")
	if err := tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	return selfTimes(spans)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
