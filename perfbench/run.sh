#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Everything the
# build and the run write stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload paper_sim --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/mod \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off \
	TMPDIR=$out
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
