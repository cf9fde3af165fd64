#!/bin/sh
# End-to-end smoke test for the network detection service: build the
# daemon and the load generator, start the daemon on an ephemeral
# loopback port, push 50 CPIs through it closed-loop, then 50 more with
# Poisson arrivals, require zero dropped CPIs in both legs (staploadgen
# exits non-zero on any drop), and verify the daemon shuts down cleanly on
# SIGTERM. Every CPI crosses the wire chunk by chunk.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'status=$?; [ -n "${server_pid:-}" ] && kill "$server_pid" 2>/dev/null; rm -rf "$workdir"; exit $status' EXIT INT TERM

go build -o "$workdir/stapserve" ./cmd/stapserve
go build -o "$workdir/staploadgen" ./cmd/staploadgen

"$workdir/stapserve" -addr 127.0.0.1:0 -http "" -scenario small \
    -replicas 1 -announce "$workdir/addr" &
server_pid=$!

# Wait for the announce file (the daemon writes it once the listener is up).
i=0
while [ ! -s "$workdir/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve_smoke: server never announced its address" >&2
        exit 1
    fi
    kill -0 "$server_pid" 2>/dev/null || { echo "serve_smoke: server died on startup" >&2; exit 1; }
    sleep 0.1
done
addr=$(head -n 1 "$workdir/addr")

"$workdir/staploadgen" -addr "$addr" -scenario small -n 50 -json "$workdir/bench.json"
grep -q '"dropped": 0' "$workdir/bench.json" || {
    echo "serve_smoke: BENCH json does not record zero drops" >&2
    exit 1
}

# Open-loop leg: the same 50 CPIs under Poisson arrivals.
"$workdir/staploadgen" -addr "$addr" -scenario small -n 50 \
    -arrivals poisson -rate 200 -seed 1 -json "$workdir/bench_poisson.json"
grep -q '"dropped": 0' "$workdir/bench_poisson.json" || {
    echo "serve_smoke: Poisson BENCH json does not record zero drops" >&2
    exit 1
}

kill -TERM "$server_pid"
i=0
while kill -0 "$server_pid" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve_smoke: server did not exit within 10s of SIGTERM" >&2
        exit 1
    fi
    sleep 0.1
done
wait "$server_pid" 2>/dev/null || {
    echo "serve_smoke: server exited non-zero on SIGTERM" >&2
    exit 1
}
server_pid=
echo "serve_smoke: ok (50 closed-loop + 50 Poisson CPIs, zero dropped, clean shutdown)"
