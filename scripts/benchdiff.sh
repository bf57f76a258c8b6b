#!/bin/sh
# Performance regression gate (DESIGN.md §11): run the tracked
# benchmarks with the Go toolchain's own runner, pinned to one P, and
# diff them against the best committed BENCH_PR*.txt values. Fails on a
# >10 % regression in ns/op or allocs/op (cmd/benchdiff). Each metric
# is the minimum over its -count repetitions, so a single noisy
# scheduler quantum does not fail the gate.
#
# -cpu 1 makes allocs/op independent of the host's CPU count: Fig6a
# fans its loads out over GOMAXPROCS runner workers, and each worker
# adds allocations. REPRO_WORKERS is unset for the same reason, since
# it would override that fan-out.
#
# Two drift guards (a host slowdown on untouched paths must not fail
# CI): a first failure triggers one paired rerun appended to the same
# file, and the gate then takes each metric's minimum over both runs (a
# real regression reproduces; noise does not). Persistent environment
# drift is acknowledged through the committed BENCH_REBASE.json
# sentinel, which cmd/benchdiff applies to ns/op baselines only.
set -eux

cd "$(dirname "$0")/.."
unset REPRO_WORKERS

tmp="$(mktemp -t benchdiff.XXXXXX.txt)"
trap 'rm -f "$tmp"' EXIT

bench() {
    go test -run '^$' -bench '^Benchmark(Fig6a|SimulationThroughput|DESEventThroughput)$' \
        -benchmem -count 3 -cpu 1 . >>"$tmp"
}

bench
if ! go run ./cmd/benchdiff -new "$tmp"; then
    echo "benchdiff.sh: regression reported; pairing with a same-host rerun" >&2
    bench
    go run ./cmd/benchdiff -new "$tmp"
fi
