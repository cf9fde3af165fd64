GO ?= go

.PHONY: all build vet test race check smoke ledger

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full pre-commit gate: everything CI runs.
check:
	sh scripts/check.sh

# Loopback smoke of the network detection service (stapserve + staploadgen).
smoke:
	sh scripts/serve_smoke.sh

# The benchmark ledger (bench/, BENCHMARK.json): every workload end to end
# plus the per-layer rows. Pass flags through ARGS, e.g.
# make ledger ARGS="--workload paper-file --seed 1 --trace 1". To compare
# two commits, run scripts/ab.sh.
ledger:
	sh bench/run.sh $(ARGS)
