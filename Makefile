# Convenience targets; scripts/check.sh is the canonical tier-1 gate
# (also run by .github/workflows/ci.yml).

GO ?= go

.PHONY: build vet lint test race bench check bench-report serve golden chaos-smoke crashtest campaignsmoke clusterkill diffuzzsmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism-contract static analysis (DESIGN.md §10, §15), one
# analyzer per contract: map-iteration order in encoded output, direct
# or transitive wall-clock reads in sim packages, ctx.Err()-after-cancel
# ordering, metric-name drift, retained arena memory, cell-map folds,
# blocking under the admission mutex, dropped durable-write errors.
lint:
	$(GO) run ./cmd/reprolint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Regenerate BENCH_PR7.json (timings, allocations, headline metrics,
# sequential-vs-parallel sweep wall clock, warm-vs-cold campaign
# cells/sec, serve-daemon cold/hit/429 split, warm-restart recovery
# latency).
bench-report:
	$(GO) run ./cmd/bench -o BENCH_PR7.json

# Kill–restart recovery harness: SIGKILL a real daemon mid-campaign,
# restart it, assert no acked job lost and no divergent bytes.
crashtest:
	sh scripts/crashtest.sh

# Campaign orchestrator smoke: a 1000-cell generator campaign over
# HTTP (streamed, resubmitted, SIGKILL-resumed) must match the local
# in-process fold byte for byte.
campaignsmoke:
	sh scripts/campaignsmoke.sh

# Differential fuzzing smoke: 500 generated scenarios where the DES
# never beats the analytic bound, a planted bound-tightening bug is
# caught and minimized, and the served diffuzz campaign matches the
# local fold byte for byte.
diffuzzsmoke:
	sh scripts/diffuzzsmoke.sh

# Cluster kill oracle: a 3-node consistent-hash ring loses a SIGKILLed
# member mid-campaign without losing an acked job or a byte of the
# final aggregate; a wiped replacement recovers warm via peer fetch.
clusterkill:
	sh scripts/clusterkill.sh

# Run the simulation daemon on :8080 (see README "Server mode").
serve:
	$(GO) run ./cmd/served

# Rewrite the golden files after intentional serialization changes.
golden:
	$(GO) test ./internal/report ./internal/viz -update

# Short deterministic chaos campaign: every fault model under the
# monitor must pass the temporal-independence oracle, and the ablated
# babbling-idiot campaign must fail it (proves the oracle still bites).
chaos-smoke:
	$(GO) run ./cmd/chaos -smoke -events 80

check:
	sh scripts/check.sh
