#!/bin/sh
# Paired runs for a host-clock claim, by the rule ROADMAP.md sets for one:
# builds a parent revision in a git worktree and the working tree, runs one
# workload at one seed PAIRS times on each side (the side that runs first
# alternates from pair to pair), then prints each side's median and
# quartiles for every end-to-end metric in BENCHMARK.json, how many pairs
# the change won on the claimed metric, and whether the claim meets the rule:
#
#   - at least 10 pairs;
#   - the change wins at least 9 of every 10 pairs;
#   - the two medians are further apart than the parent's quartile distance.
#
# usage, from the root of a checkout:
#   sh scripts/bench-pairs.sh [-model] PARENT_REV WORKLOAD SEED PAIRS METRIC
# e.g.  sh scripts/bench-pairs.sh HEAD~1 maintain-recover 1 10 host_cpu_s
#
# Exit status 1 if the claim does not meet the rule, if a run is not correct
# or failed ops, or if a sim_digest differs between the two sides. -model
# drops the digest check, for a change that moves the simulated product on
# purpose. Nothing under bench/ is edited: the parent's worktree and every
# run's output live in .bench_build/pairs/, and the worktree is removed on
# exit.
set -eu
model=0
if [ "${1-}" = -model ]; then
	model=1
	shift
fi
if [ $# -ne 5 ]; then
	echo "usage: $0 [-model] PARENT_REV WORKLOAD SEED PAIRS METRIC" >&2
	exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4 claim=$5
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build/pairs
parent=$out/parent
mkdir -p "$out"

if ! grep -q "\"name\": \"$claim\".*\"bound\"" "$root/BENCHMARK.json"; then
	echo "bench-pairs: $claim is not an end-to-end metric in BENCHMARK.json" >&2
	exit 2
fi

cleanup() { git -C "$root" worktree remove --force "$parent" 2>/dev/null || true; }
trap cleanup EXIT
trap 'exit 130' INT TERM
cleanup
git -C "$root" worktree prune
git -C "$root" worktree add --quiet --detach "$parent" "$rev"

# build both sides before any timed run (bench.sh builds, then -h exits 0)
for dir in "$parent" "$root"; do
	echo "building $dir" >&2
	(cd "$dir" && sh bench/bench.sh -h >/dev/null 2>&1) || { echo "bench-pairs: build failed in $dir" >&2; exit 1; }
done

: >"$out/runs.txt"
i=0
while [ "$i" -lt "$pairs" ]; do
	i=$((i + 1))
	order="parent change"
	[ $((i % 2)) -eq 1 ] || order="change parent"
	for side in $order; do
		dir=$root
		[ "$side" = change ] || dir=$parent
		echo "pair $i $side" >&2
		# two lines per run: the report (sim_digest) and the result
		(cd "$dir" && sh bench/bench.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0) |
			tail -n 2 | sed "s/^/$side $i /" >>"$out/runs.txt"
	done
done

# one line per value: "side pair name value"
awk '
{
	side = $1; pair = $2; s = $0
	if (match(s, /"sim_digest":"[0-9a-f]+"/))
		print side, pair, "sim_digest", substr(s, RSTART + 14, RLENGTH - 15)
	if (match(s, /"correct":(true|false)/))
		print side, pair, "correct", substr(s, RSTART + 10, RLENGTH - 10)
	if (match(s, /"failed":[0-9]+/))
		print side, pair, "failed", substr(s, RSTART + 9, RLENGTH - 9)
	if (!match(s, /"metrics":\{/))
		next
	s = substr(s, RSTART + RLENGTH)
	while (match(s, /"[A-Za-z0-9_.-]+":\{"value":[^,]+,/)) {
		tok = substr(s, RSTART, RLENGTH)
		s = substr(s, RSTART + RLENGTH)
		name = tok; sub(/^"/, "", name); sub(/".*/, "", name)
		val = tok; sub(/.*"value":/, "", val); sub(/,$/, "", val)
		print side, pair, name, val
	}
}' "$out/runs.txt" >"$out/values.txt"

# end-to-end metrics in BENCHMARK.json order: "name better"
grep '"bound"' "$root/BENCHMARK.json" |
	sed 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/' >"$out/defs.txt"

awk -v defsfile="$out/defs.txt" -v claim="$claim" -v pairs="$pairs" -v model="$model" \
	-v rev="$rev" -v workload="$workload" -v seed="$seed" '
function stats(side, m,    k, j, x) {   # sorts v[1..n]; q1, med, q3 as statistics.quantiles(n=4)
	n = 0
	for (k = 1; k <= pairs; k++)
		if ((side, m, k) in val) v[++n] = val[side, m, k] + 0
	for (k = 2; k <= n; k++) {
		x = v[k]
		for (j = k - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
		v[j + 1] = x
	}
	q1 = quantile(1); med = quantile(2); q3 = quantile(3)
}
function quantile(k,    pos, lo, frac) {
	if (n == 0) return 0
	pos = k * (n + 1) / 4
	if (pos < 1) pos = 1
	if (pos > n) pos = n
	lo = int(pos); frac = pos - lo
	if (lo >= n) return v[n]
	return v[lo] + frac * (v[lo + 1] - v[lo])
}
BEGIN { while ((getline line < defsfile) > 0) { split(line, f, " "); order[++nm] = f[1]; better[f[1]] = f[2] } }
{ val[$1, $3, $2] = $4 }
END {
	printf "%s at seed %d, %d pairs: parent %s vs working tree\n", workload, seed, pairs, rev
	printf "%-26s %12s %12s %12s   %12s %12s %12s %8s\n", "metric", "parent q1", "median", "q3", "change q1", "median", "q3", "delta"
	for (i = 1; i <= nm; i++) {
		m = order[i]
		stats("parent", m); pq1 = q1; pmed = med; pq3 = q3
		stats("change", m)
		d = pmed != 0 ? 100 * (med - pmed) / pmed : 0
		printf "%-26s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g %+7.2f%%\n", m, pq1, pmed, pq3, q1, med, q3, d
		if (m == claim) { cpq1 = pq1; cpmed = pmed; cpq3 = pq3; ccmed = med }
	}
	wins = 0; digests = 0; broken = 0
	for (k = 1; k <= pairs; k++) {
		a = val["parent", claim, k] + 0; b = val["change", claim, k] + 0
		if ((better[claim] == "lower" && b < a) || (better[claim] == "higher" && b > a)) wins++
		if (val["parent", "sim_digest", k] != val["change", "sim_digest", k]) digests++
		for (s = 0; s < 2; s++) {
			side = s ? "change" : "parent"
			if (val[side, "correct", k] != "true" || val[side, "failed", k] != 0) {
				printf "FLAG pair %d %s: correct %s, failed %s\n", k, side, val[side, "correct", k], val[side, "failed", k]
				broken = 1
			}
		}
	}
	gap = ccmed - cpmed; if (gap < 0) gap = -gap
	iqr = cpq3 - cpq1
	moved = (better[claim] == "lower") ? ccmed < cpmed : ccmed > cpmed
	ok = pairs >= 10 && wins * 10 >= 9 * pairs && moved && gap > iqr
	printf "claim %s (%s is better): %d/%d pairs won; medians %.6g -> %.6g, %.6g apart, parent quartile distance %.6g\n", claim, better[claim], wins, pairs, cpmed, ccmed, gap, iqr
	if (digests > 0) printf "sim_digest differs between the sides in %d of %d pairs%s\n", digests, pairs, model ? " (-model: not a failure)" : ""
	else printf "sim_digest equal in all %d pairs\n", pairs
	printf "claim %s the paired-runs rule (>= 10 pairs, >= 9/10 wins, medians apart by more than the parent quartile distance)\n", ok ? "MEETS" : "DOES NOT MEET"
	exit (!ok || broken || (digests > 0 && !model))
}' "$out/values.txt"
