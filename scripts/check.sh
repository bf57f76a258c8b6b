#!/bin/sh
# Tier-1 quality gate (DESIGN.md §6): module hygiene (go.mod/go.sum must
# be tidy — reprolint's analyzer scope lists are rooted at the module
# path, so drift would silently unscope them), build, vet, the full
# test suite under the race detector — the determinism contract
# (DESIGN.md §10, §15) rides inside it via TestRepositoryIsClean, which
# runs the whole reprolint suite over the tree, so a separate driver
# invocation here would type-check the repository a second time for no
# new signal (CI keeps one dedicated fail-fast reprolint step for
# annotated diagnostics) — the
# parallel experiment engine must be data-race free — one pass over
# every benchmark so the measured paths keep compiling and running, the
# chaos smoke campaign (DESIGN.md §8): monitored runs must satisfy the
# temporal-independence oracle and the monitor-ablated babbling-idiot
# runs must violate it, the differential fuzzing smoke (DESIGN.md §14):
# 500 generated scenarios where the DES never beats the analytic bound,
# a planted bound-tightening bug is caught and delta-debugged to a
# minimal counterexample, and the served diffuzz campaign aggregates to
# bytes identical to the local fold, the kill–restart recovery harness
# (DESIGN.md §9): a SIGKILLed daemon must lose no acked job and never
# serve divergent bytes, the campaign orchestrator smoke
# (DESIGN.md §12): a 1000-cell generator campaign served over HTTP —
# streamed, resubmitted and SIGKILL-resumed — must aggregate to bytes
# identical to the local in-process fold, and the cluster kill oracle
# (DESIGN.md §13): a 3-node ring loses a SIGKILLed member mid-campaign
# without losing an acked job or a byte of the aggregate, and a wiped
# replacement recovers warm via verified peer fetch. Last, the
# benchmark module (perfbench/, its own go.mod, so `./...` skips it) is
# vetted and unit-tested, and every workload runs briefly: each result
# line must report correct output and no failed operation.
set -eux

cd "$(dirname "$0")/.."

go mod tidy
git diff --exit-code -- go.mod go.sum
go build ./...
go vet ./...
go test -race ./...
# Zero-alloc engine budgets (DESIGN.md §11): the race detector's
# instrumentation allocates, so the AllocsPerRun budget tests are
# skipped under -race and run here in a dedicated non-race pass.
go test -run 'TestAllocBudget|TestReinitSteadyStateDoesNotAllocate|TestResetRecyclesEventsWithoutAllocating' . ./internal/hv ./internal/des
go test -bench=. -benchtime=1x -run '^$' .
go run ./cmd/chaos -smoke -events 80
sh scripts/diffuzzsmoke.sh
sh scripts/crashtest.sh
sh scripts/campaignsmoke.sh
sh scripts/clusterkill.sh
(cd perfbench && go vet . && go test .)
for w in paper_sim campaign_durable serve_mix ring_campaign; do
	line=$(bash perfbench/run.sh --workload "$w" --seconds 2 --trace 0)
	case $line in
	*'"correct":true,'*'"failed":0,'*) ;;
	*) echo "perfbench $w: output check failed: $line" >&2; exit 1 ;;
	esac
done
