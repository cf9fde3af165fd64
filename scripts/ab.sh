#!/bin/sh
# Same-host A/B comparison of two commits on the benchmark ledger.
#
#	scripts/ab.sh <base-ref> <pairs> [-- <ledger args>]
#	scripts/ab.sh HEAD~1 10 -- --workload slowstore-file --seconds 5
#
# The base side is <base-ref> checked out in a throwaway git worktree; the
# change side is the current checkout, uncommitted edits included. Each
# pair runs `sh bench/run.sh --trace 1 <ledger args>` once per side, the
# order alternating pair by pair (ABBA), and reads diag.cpis_per_s and
# diag.latency_p50_ms from the result line. The report gives each side's
# median and quartiles, the change/base ratio of every pair and the share
# of pairs the change won. A metric gets a claim only when at least ten
# pairs ran, the change won at least nine tenths of them (ties count for
# neither) and the medians differ by more than the base's interquartile
# range; otherwise "no claim".
# Exit status: 0 report printed, 1 a ledger run failed, 2 usage.
set -eu

usage() {
	echo "usage: scripts/ab.sh <base-ref> <pairs> [-- <ledger args>]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
base_ref=$1
pairs=$2
shift 2
case $pairs in '' | *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
if [ $# -gt 0 ]; then
	[ "$1" = "--" ] || usage
	shift
fi

cd "$(git rev-parse --show-toplevel)"
base_sha=$(git rev-parse --verify --quiet "$base_ref^{commit}") || {
	echo "ab.sh: unknown commit $base_ref" >&2
	exit 2
}

tmp=$(mktemp -d)
wt=$tmp/base
cleanup() {
	git worktree remove --force "$wt" >/dev/null 2>&1 || true
	git worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM HUP
git worktree add --quiet --detach "$wt" "$base_sha"
[ -f "$wt/bench/run.sh" ] || {
	echo "ab.sh: $base_ref has no bench/run.sh" >&2
	exit 2
}

# run <side> <dir> <ledger args>: one ledger run; appends
# "<side> <cpis/s> <p50 ms>" to the run log.
run() {
	side=$1 dir=$2
	shift 2
	if ! (cd "$dir" && sh bench/run.sh --trace 1 "$@") >"$tmp/out" 2>"$tmp/err"; then
		echo "ab.sh: ledger run on the $side side failed:" >&2
		tail -n 20 "$tmp/err" >&2
		exit 1
	fi
	tail -n 1 "$tmp/out" | awk -v side="$side" '
		# metric(k): the value of "k": {"value": v, ...} in the result line.
		function metric(k,    i, s) {
			i = index($0, "\"" k "\":")
			if (i > 0) {
				s = substr($0, i + length(k) + 3)
				i = index(s, "\"value\":")
			}
			if (i == 0) { print "ab.sh: no " k " in the result line" > "/dev/stderr"; exit 1 }
			s = substr(s, i + 8)
			sub(/^ */, "", s)
			sub(/[,}].*/, "", s)
			return s
		}
		{ print side, metric("diag.cpis_per_s"), metric("diag.latency_p50_ms") }' >>"$tmp/runs"
}

: >"$tmp/runs"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$wt" "$@"
		run change . "$@"
	else
		run change . "$@"
		run base "$wt" "$@"
	fi
	echo "pair $i/$pairs done" >&2
	i=$((i + 1))
done

echo "base $base_ref ($base_sha) vs change (working tree), $pairs pairs, ledger args: $*"
awk '
	# Quantile of sorted v[1..n] by linear interpolation.
	function q(v, n, p,    h, l) {
		h = (n - 1) * p + 1
		l = int(h)
		return l >= n ? v[n] : v[l] + (h - l) * (v[l + 1] - v[l])
	}
	function sortv(v, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	}
	$1 == "base" { nb++; b[1, nb] = $2 + 0; b[2, nb] = $3 + 0 }
	$1 == "change" { nc++; c[1, nc] = $2 + 0; c[2, nc] = $3 + 0 }
	END {
		name[1] = "diag.cpis_per_s"; higher[1] = 1
		name[2] = "diag.latency_p50_ms"; higher[2] = 0
		for (m = 1; m <= 2; m++) {
			won = lost = 0
			printf "\n%s (%s is better)\n  pair  change/base\n", name[m], higher[m] ? "higher" : "lower"
			for (k = 1; k <= nb; k++) {
				r = b[m, k] > 0 ? c[m, k] / b[m, k] : 0
				printf "  %4d  %.3f\n", k, r
				if (c[m, k] != b[m, k]) {
					if ((c[m, k] > b[m, k]) == higher[m]) won++; else lost++
				}
				vb[k] = b[m, k]; vc[k] = c[m, k]
			}
			sortv(vb, nb); sortv(vc, nc)
			bq1 = q(vb, nb, 0.25); bmed = q(vb, nb, 0.5); bq3 = q(vb, nb, 0.75)
			cmed = q(vc, nc, 0.5)
			printf "  base    median %.4g  quartiles %.4g .. %.4g\n", bmed, bq1, bq3
			printf "  change  median %.4g  quartiles %.4g .. %.4g\n", cmed, q(vc, nc, 0.25), q(vc, nc, 0.75)
			printf "  change won %d of %d pairs (%.0f%%), lost %d\n", won, nb, 100 * won / nb, lost
			d = cmed - bmed; if (d < 0) d = -d
			verdict = "no claim"
			if (nb < 10) verdict = "no claim (fewer than 10 pairs)"
			else if (won >= 0.9 * nb && d > bq3 - bq1) verdict = "claim: change better"
			printf "  |median difference| %.4g vs base IQR %.4g: %s\n", d, bq3 - bq1, verdict
		}
	}' "$tmp/runs"
