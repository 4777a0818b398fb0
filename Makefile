# Convenience targets for the OASIS reproduction (stdlib-only Go module).

GO ?= go

.PHONY: all build vet lint test race bench bench-quick bench-compare tables examples cover clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt and vet always; golangci-lint when installed
# (CI installs it, local runs degrade gracefully).
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi
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

# Regenerate every figure/scenario table of the paper reproduction
# (E1-E10, baselines, soak).
tables:
	$(GO) run ./cmd/benchtab

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
