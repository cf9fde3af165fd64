#!/bin/sh
# Pre-commit gate: gofmt, vet, staticcheck (when installed), build, the
# race-instrumented test suite, the nested bench module, the smokes and the
# ledger correctness smoke. Mirrors .github/workflows/ci.yml.
set -eux
cd "$(dirname "$0")/.."
test -z "$(gofmt -l .)"
go vet ./...
# staticcheck is optional locally (no network install here); CI always
# runs it, so a missing binary skips rather than fails.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (CI runs it)" >&2
fi
go build ./...
go test -race ./...
(cd bench && go vet ./... && go test ./...)
# The smokes run one stapdetect binary, built once.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
stapdetect=$tmp/stapdetect
go build -o "$stapdetect" ./cmd/stapdetect
# Small-budget smoke: the pipeline under a budget barely above its minimum
# residency (149 KiB) must complete (serializing, never deadlocking), a
# budget just below it must be refused with the budget error, and the
# banded executor must finish in less memory than even one cube's
# residency.
"$stapdetect" -small -cpis 4 -membudget 150K >/dev/null
if out=$("$stapdetect" -small -cpis 4 -membudget 148K 2>&1); then
    echo "stapdetect ran under 148K, below its minimum residency" >&2
    exit 1
fi
echo "$out" | grep -q 'below the minimum residency'
"$stapdetect" -small -cpis 4 -membudget 100K -band 16 >/dev/null
# Banded fault smoke: band reads from a striped dataset through a
# readahead window under injected failures and corruption, skip-CPI
# degradation and a budget below one cube's residency. Eviction re-reads
# the dataset and must never write spill files into it. Each run gets 128
# descriptors: the store keeps one open per (staging file, stripe dir),
# 64 at pfsgen's default 16 dirs x 4 files, so a handle leaked per read
# runs out within 64 CPIs. Skip-CPI turns the failed opens into drops,
# and this seed drops none. Four legs run on the same data, faults and
# seed: 16-gate bands embedded and with -separate-io (both designs share
# one read driver), a whole-cube run and a run in one band of the full
# extent. Every leg's detection lines must be identical, and the whole
# cube and the one full band are one fetch, so their resilience counters
# must be identical too.
data=$tmp/data
go run ./cmd/pfsgen -root "$data" -small >/dev/null
for leg in embedded separate whole band64; do
    case $leg in
    embedded) flags="-band 16 -membudget 100K" ;;
    separate) flags="-band 16 -membudget 100K -separate-io" ;;
    whole) flags="-membudget 150K" ;;
    band64) flags="-band 64 -membudget 150K" ;;
    esac
    out=$(ulimit -n 128 && "$stapdetect" -data "$data" -small -cpis 64 -readahead 4 \
        -faults fail=0.05,corrupt=0.02,seed=7 -degrade skip $flags)
    echo "$out" | grep -q ' drops=0 '
    echo "$out" | grep '^  beam=' >"$tmp/beams.$leg"
    echo "$out" | grep '^resilience:' >"$tmp/resilience.$leg"
    if [ -n "$(find "$data" -name 'spill_*')" ]; then
        echo "budgeted run wrote spill files into the dataset" >&2
        exit 1
    fi
done
for leg in separate whole band64; do
    diff "$tmp/beams.embedded" "$tmp/beams.$leg"
done
diff "$tmp/resilience.whole" "$tmp/resilience.band64"
sh scripts/serve_smoke.sh
sh scripts/chaos_smoke.sh
for w in paper-file slowstore-file mid-banded small-serve; do
    sh bench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0
done
