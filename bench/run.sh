#!/bin/sh
# Launch path of the stapio benchmark ledger (see bench/README.md, "Launch
# rules"). Order matters: the go.mod guard and the telemetry mode file come
# before the first go command, so a bare directory exits at once and no go
# invocation ever spawns the daemonised telemetry child.
set -eu

[ -f go.mod ] && [ -f bench/go.mod ] || {
	echo "bench/run.sh: run from the root of a stapio checkout (go.mod and bench/go.mod not found)" >&2
	exit 2
}

out=$(pwd)/bench/.out
mkdir -p "$out/config/go/telemetry" "$out/tmp"
echo off > "$out/config/go/telemetry/mode"

export XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
export STAPLEDGER_OUT="$out"

(cd bench && go build -o .out/stapledger .)
exec bench/.out/stapledger "$@"
