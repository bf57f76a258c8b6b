package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// Parallel execution must be indistinguishable from sequential: every
// job derives its randomness from a per-index seeded stream and results
// merge in index order, so the worker count is not allowed to leak into
// any result field (DESIGN.md §5 determinism invariant).

func parallelWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		// Still exercises the goroutine pool path of runner.Map even
		// when the host has a single core.
		w = 4
	}
	return w
}

func TestFig6ParallelEqualsSequential(t *testing.T) {
	cfg := reducedFig6()
	cfg.EventsPerLoad = 800

	seqCfg := cfg
	seqCfg.Workers = 1
	parCfg := cfg
	parCfg.Workers = parallelWorkers()

	for _, v := range []Fig6Variant{Fig6a, Fig6b, Fig6c} {
		seq, err := Fig6(v, seqCfg)
		if err != nil {
			t.Fatalf("fig6%c sequential: %v", v, err)
		}
		par, err := Fig6(v, parCfg)
		if err != nil {
			t.Fatalf("fig6%c parallel: %v", v, err)
		}
		// The result echoes its config; only the Workers knob may differ.
		seq.Config.Workers = 0
		par.Config.Workers = 0
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("fig6%c: workers=1 and workers=%d diverge", v, parCfg.Workers)
		}
	}
}

func TestFig7ParallelEqualsSequential(t *testing.T) {
	cfg := DefaultFig7()
	cfg.ECU.Events = 600

	seqCfg := cfg
	seqCfg.Workers = 1
	parCfg := cfg
	parCfg.Workers = parallelWorkers()

	seq, err := Fig7(seqCfg)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := Fig7(parCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	// The result echoes its config; only the Workers knob may differ.
	seq.Config.Workers = 0
	par.Config.Workers = 0
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("fig7: workers=1 and workers=%d diverge", parCfg.Workers)
	}
}

// TestOverheadParallelEqualsSequential runs the (load, mode) fan-out
// sequentially, on fewer workers than jobs, and on one worker per job.
func TestOverheadParallelEqualsSequential(t *testing.T) {
	cfg := DefaultFig6()
	cfg.EventsPerLoad = 600

	seqCfg := cfg
	seqCfg.Workers = 1
	seq, err := Overhead(seqCfg)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{2, 2 * len(cfg.Loads)} {
		parCfg := cfg
		parCfg.Workers = workers
		par, err := Overhead(parCfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("overhead: workers=1 and workers=%d diverge", workers)
		}
	}
}
