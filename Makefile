# MichiCAN reproduction — common targets.

GO ?= go

.PHONY: all build test vet bench bench-short race repro examples cover clean \
	fleet fleet-bench fleet-guard store-guard watch-guard crash-resume-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# One testing.B per paper table/figure plus ablations and micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Quick smoke pass over every benchmark: one iteration each.
bench-short:
	$(GO) test -run '^$$' -bench=. -benchtime 1x ./...

# Race-detector pass — exercises the parallel trial runner under -race.
race:
	$(GO) test -race ./...

# Regenerate the paper's entire evaluation (Tables I-III, Fig. 6, all
# studies) in one run.
repro:
	$(GO) run ./cmd/michican-bench -all

# A small fleet with the control plane up for poking at /fleet/*.
fleet:
	$(GO) run ./cmd/michican-fleet -vehicles 16 -http 127.0.0.1:6180 -linger 5m

# The churn benchmark behind BENCH_PR7.json (vehicles joining/leaving
# mid-run, query load, worker scaling sweep).
fleet-bench:
	$(GO) run ./cmd/michican-fleet -bench -vehicles 16 -bench-json BENCH_PR7.json

# The fleet-aggregation overhead guard (sharding + net commits vs the same
# vehicles standalone, ≤5%).
fleet-guard:
	$(GO) run ./cmd/michican-fleet -agg-overhead -vehicles 8

# The persistence-overhead guard (in-memory vs +segment store vs
# +checkpoints): exact stepping at 2% load must stay within 2% of in-memory.
store-guard:
	$(GO) run ./cmd/michican-bench -overhead store -overhead-json /tmp/store-overhead.json

# The live-SLO overhead guard (forensics vs +watch engine vs +5 ms SLO
# poller): exact stepping at 2% load must stay within 2% of forensics alone.
watch-guard:
	$(GO) run ./cmd/michican-bench -overhead watch -overhead-json /tmp/watch-overhead.json

# Kill a durable fleet run mid-flight, resume it from the last checkpoints,
# and assert the segment files come out byte-identical to an uninterrupted
# run of the same spec (SHA-256 store digests).
crash-resume-smoke:
	./scripts/crash_resume_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dos-protection
	$(GO) run ./examples/parksense
	$(GO) run ./examples/parrot-comparison
	$(GO) run ./examples/busoff-attack
	$(GO) run ./examples/gateway

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
