GO ?= go

.PHONY: all build vet test race check ledger bench benchjson bench5 bench6 bench8 bench9 benchregress smoke

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
check: vet build race smoke

# Loopback smoke of the network detection service (stapserve + staploadgen).
smoke:
	sh scripts/serve_smoke.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The benchmark ledger (bench/, BENCHMARK.json): every workload end to end
# plus the per-layer rows. Pass flags through ARGS, e.g.
# make ledger ARGS="--workload paper-file --seed 1 --trace 1".
ledger:
	sh bench/run.sh $(ARGS)

# Refresh the committed hot-path benchmark record (now including the
# readahead/decode-worker sweep). BENCH_2.json's "after" section is the
# baseline: it captured the depth-1 pipeline just before the readahead
# work, so the comparison is exactly depth-1 vs the new I/O frontend.
benchjson:
	$(GO) run ./cmd/benchjson -before BENCH_2.json -o BENCH_3.json

# Refresh the committed auto-tuner sweep: fixed-even vs fixed-stapopt vs
# online-autotuned worker splits on the skewed scenarios. Historical —
# BENCH_5.json captured the compute-only solve; bench6 supersedes it.
bench5:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkAutoTune' -benchtime 1x -o BENCH_5.json

# Refresh the committed auto-tuner sweep with the joint I/O + compute
# solve: the slowstore scenario now starts from a cold depth-1 frontend
# and the tuner trades budget between compute workers and the I/O knobs.
# Median of three runs; BENCH_5.json rides along as the before section.
bench6:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkAutoTune' -benchtime 1x -repeat 3 -before BENCH_5.json -o BENCH_6.json

# Refresh the committed out-of-core record: one chunked striped dataset
# processed unlimited, under a quarter-of-peak budget with the spill tier
# armed, and through the banded executor in less memory than one cube's
# residency. Median of three runs.
bench8:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkOutOfCore' -benchtime 1x -repeat 3 -o BENCH_8.json

# Refresh the committed blocked-kernel record: the compute kernel
# microbenchmarks (FFT, Doppler, covariance, weights, beamform, pulse
# compression) plus the real-pipeline I/O designs at the default benchtime,
# and the autotuner sweep at one-CPI granularity, merged into one artifact.
# Median of three runs each; the existing before section is preserved.
bench9:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkKernel|BenchmarkRealPipelineIODesigns' -repeat 3 -o .bench9-kernels.tmp.json
	$(GO) run ./cmd/benchjson -bench 'BenchmarkAutoTune' -benchtime 1x -repeat 3 -o .bench9-autotune.tmp.json
	$(GO) run ./cmd/benchjson -merge .bench9-kernels.tmp.json,.bench9-autotune.tmp.json -keep-before -o BENCH_9.json
	rm -f .bench9-kernels.tmp.json .bench9-autotune.tmp.json

# Rerun the sweep and diff its steady throughput against the committed
# baselines. The embedded-I/O scenarios are gated (>25% loss fails); the
# slowstore scenario stays annotate-only.
benchregress:
	sh scripts/bench_regress.sh
