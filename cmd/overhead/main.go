// Command overhead regenerates the memory and runtime overhead table of
// §6.2: the reference implementation's code/data footprint, the charged
// C_Mon / C_sched / C_ctx costs, and the measured context-switch increase
// of scenario 2 (dmin = λ) against the unmodified hypervisor.
//
// Usage:
//
//	overhead [-events N] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/runner"
)

func main() {
	events := flag.Int("events", 5000, "IRQs per interrupt load")
	workers := flag.Int("workers", runner.Default(), "worker pool size for the per-load baseline and monitored runs (1 = sequential; output is identical)")
	flag.Parse()

	cfg := experiments.DefaultFig6()
	cfg.EventsPerLoad = *events
	cfg.Workers = *workers

	res, err := experiments.Overhead(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "overhead: %v\n", err)
		os.Exit(1)
	}
	res.Write(os.Stdout)
}
