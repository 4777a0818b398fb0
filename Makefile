# Convenience targets for the OASIS reproduction (stdlib-only Go module).

GO ?= go

.PHONY: all build vet lint test race bench bench-quick bench-compare tables obs recover wire capacity capacity-quick gw edgecache replication seqcore examples cover clean

all: build vet test race capacity-quick

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: vet always; golangci-lint when installed (CI installs
# it, local runs degrade gracefully).
lint: vet
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; ran go vet only"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One testing.B benchmark per experiment row (see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark (bench/README.md, BENCHMARK.json) at smoke
# scale: every workload, both modes, ~45 s; numbers are not quotable.
bench-quick:
	$(GO) run ./bench -quick

# The regression gate over two result sets written by
# `go run ./bench -runs N -trace 0 -out <set>.json`:
#   make bench-compare A=parent.json B=change.json
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=<set.json> B=<set.json>"; exit 2; }
	$(GO) run ./bench -compare $(A) $(B)

# Regenerate every figure/scenario table from the paper reproduction and
# the machine-readable rows (BENCH_parallel.json, BENCH_faults.json).
tables:
	$(GO) run ./cmd/benchtab -json BENCH_parallel.json -faults-json BENCH_faults.json

# E13: measure the observability layer's overhead on the hot paths and
# write the machine-readable rows (BENCH_obs.json).
obs:
	$(GO) run ./cmd/benchtab -exp obs -obs-json BENCH_obs.json

# E14: measure steady-state journaling overhead on the hot paths and the
# recovery time as a function of journal size (BENCH_recover.json).
recover:
	$(GO) run ./cmd/benchtab -exp recover -recover-json BENCH_recover.json

# E15: wire hot path — framing latency, batched callback validation
# under fan-in, and binary-vs-JSON codec rows (BENCH_wire.json).
wire:
	$(GO) run ./cmd/benchtab -exp wire -wire-json BENCH_wire.json

# E16: million-principal capacity — resident bytes per principal
# (compact vs pre-capacity baseline), p99 validation latency under churn,
# and cascade-collapse latency for a 100k-cert dependency tree
# (BENCH_capacity.json). The full run holds two million-principal worlds
# in memory; use capacity-quick on small machines.
capacity:
	$(GO) run ./cmd/benchtab -exp capacity -capacity-json BENCH_capacity.json

# Same harness at smoke scale (20k principals): exercises both variants,
# eviction, expiry waves and the cascade without the memory footprint.
capacity-quick:
	$(GO) run ./cmd/benchtab -exp capacity -quick

# E17: HTTP edge gateway — per-call edge tax vs raw OW2, batched HTTP
# fan-in in free-CPU and issuer-bound regimes, and the overload rows
# showing admission (429/503) holding accepted p99 (BENCH_gateway.json).
gw:
	$(GO) run ./cmd/benchtab -exp gateway -gateway-json BENCH_gateway.json

# E18: event-fed edge verdict cache — cached-edge hit latency vs local
# and uncached-edge validation, the kill-the-cert run proving verdicts
# die by revocation event (zero issuer calls), and the severed-feed run
# proving fail-closed behavior (BENCH_edgecache.json).
edgecache:
	$(GO) run ./cmd/benchtab -exp edgecache -edgecache-json BENCH_edgecache.json

# E19: journal replication — a replica killed mid-revocation-burst loses
# nothing once the replacement converges, aggregate validation reads
# scale with replica count (3-node floor 2x single), and a severed
# follower fails closed on reads (staleness bound) and writes (lease)
# (BENCH_replication.json).
replication:
	$(GO) run ./cmd/benchtab -exp replication -replication-json BENCH_replication.json

# E20: per-shard sequencer core — sustained mixed issue/revoke pair
# throughput against a real journal, sequenced apply loop vs the direct
# inline write path, plus revoke-latency percentiles (the revocation
# publish-latency bound) (BENCH_seqcore.json).
seqcore:
	$(GO) run ./cmd/benchtab -exp seqcore -seqcore-json BENCH_seqcore.json

# Run all six runnable paper scenarios.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/healthcare
	$(GO) run ./examples/visitingdoctor
	$(GO) run ./examples/anonymousclinic
	$(GO) run ./examples/weboftrust
	$(GO) run ./examples/delegation

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
