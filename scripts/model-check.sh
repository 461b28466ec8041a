#!/bin/sh
# The check for a model gain, by the rule ROADMAP.md sets for one: a change
# to the simulated product names the sim_* metric that moves at every seed
# 1-10. Builds a parent revision in a git worktree and the working tree, runs
# every workload BENCHMARK.json declares at seeds 1-10 on both sides (one run
# per side per seed), and prints, per workload, every sim_* metric and
# space_ratio parent -> change: the medians over the ten seeds and the range
# of the per-seed changes. The claimed metric's workload also gets one line
# per seed.
#
# usage, from the root of a checkout:
#   sh scripts/model-check.sh PARENT_REV WORKLOAD METRIC
# e.g.  sh scripts/model-check.sh HEAD~1 oltp-mixed sim_cpu_s
#
# Exit status 1 if METRIC on WORKLOAD is not better on the change at every
# seed, if any run is not correct or failed ops, or if any sim metric on any
# workload and seed is worse than the parent's by more than its BENCHMARK.json
# bound. Nothing under bench/ is edited: the parent's worktree and every run's
# output live in .bench_build/model/, and the worktree is removed on exit.
# The change side is the live working tree, so do not edit Go files while it
# runs.
set -eu
if [ $# -ne 3 ]; then
	echo "usage: $0 PARENT_REV WORKLOAD METRIC" >&2
	exit 2
fi
rev=$1 claimwl=$2 claim=$3
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build/model
parent=$out/parent
mkdir -p "$out"

workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
case " $(echo $workloads) " in
*" $claimwl "*) ;;
*)
	echo "model-check: $claimwl is not a workload in BENCHMARK.json" >&2
	exit 2
	;;
esac
# the sim metrics with their bounds, in BENCHMARK.json order: "name better bound"
grep '"bound"' "$root/BENCHMARK.json" |
	sed 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)".*"bound": \([0-9.]*\).*/\1 \2 \3/' |
	grep -E '^(sim_|space_ratio )' >"$out/defs.txt"
if ! grep -q "^$claim " "$out/defs.txt"; then
	echo "model-check: $claim is not a sim metric in BENCHMARK.json" >&2
	exit 2
fi

cleanup() { git -C "$root" worktree remove --force "$parent" 2>/dev/null || true; }
trap cleanup EXIT
trap 'exit 130' INT TERM
cleanup
git -C "$root" worktree prune
git -C "$root" worktree add --quiet --detach "$parent" "$rev"

for dir in "$parent" "$root"; do
	echo "building $dir" >&2
	(cd "$dir" && sh bench/bench.sh -h >/dev/null 2>&1) || { echo "model-check: build failed in $dir" >&2; exit 1; }
done

: >"$out/runs.txt"
for workload in $workloads; do
	for seed in 1 2 3 4 5 6 7 8 9 10; do
		for side in parent change; do
			dir=$root
			[ "$side" = change ] || dir=$parent
			echo "$workload seed $seed $side" >&2
			# two lines per run: the report and the result
			(cd "$dir" && sh bench/bench.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0) |
				tail -n 2 | sed "s/^/$side $workload $seed /" >>"$out/runs.txt"
		done
	done
done

# one line per value: "side workload seed name value"
awk '
{
	side = $1; wl = $2; seed = $3; s = $0
	if (match(s, /"correct":(true|false)/))
		print side, wl, seed, "correct", substr(s, RSTART + 10, RLENGTH - 10)
	if (match(s, /"failed":[0-9]+/))
		print side, wl, seed, "failed", substr(s, RSTART + 9, RLENGTH - 9)
	if (!match(s, /"metrics":\{/))
		next
	s = substr(s, RSTART + RLENGTH)
	while (match(s, /"[A-Za-z0-9_.-]+":\{"value":[^,]+,/)) {
		tok = substr(s, RSTART, RLENGTH)
		s = substr(s, RSTART + RLENGTH)
		name = tok; sub(/^"/, "", name); sub(/".*/, "", name)
		val = tok; sub(/.*"value":/, "", val); sub(/,$/, "", val)
		print side, wl, seed, name, val
	}
}' "$out/runs.txt" >"$out/values.txt"

awk -v defsfile="$out/defs.txt" -v claim="$claim" -v claimwl="$claimwl" -v rev="$rev" -v wls="$(echo $workloads)" '
function median(a, n,    k, j, x) {   # sorts a[1..n]
	for (k = 2; k <= n; k++) {
		x = a[k]
		for (j = k - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
	return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
function pct(p, c) { return p != 0 ? 100 * (c - p) / p : 0 }
BEGIN {
	while ((getline line < defsfile) > 0) {
		split(line, f, " "); order[++nm] = f[1]; better[f[1]] = f[2]; bound[f[1]] = f[3]
	}
	nw = split(wls, wl, " ")
}
{ val[$1, $2, $3, $4] = $5 }
END {
	bad = 0; wins = 0
	printf "parent %s vs working tree, seeds 1-10, one run per side per seed\n", rev
	for (w = 1; w <= nw; w++) {
		W = wl[w]
		for (s = 1; s <= 10; s++)
			for (k = 0; k < 2; k++) {
				side = k ? "change" : "parent"
				if (val[side, W, s, "correct"] != "true" || val[side, W, s, "failed"] != 0) {
					printf "FLAG %s seed %d %s: correct %s, failed %s\n", W, s, side, val[side, W, s, "correct"], val[side, W, s, "failed"]
					bad = 1
				}
			}
		printf "\n== %s\n%-26s %14s %14s %9s   %-19s %s\n", W, "metric", "parent median", "change median", "delta", "per-seed min..max", "bound"
		for (i = 1; i <= nm; i++) {
			m = order[i]; n = 0; lo = ""; hi = ""
			for (s = 1; s <= 10; s++) {
				p = val["parent", W, s, m] + 0; c = val["change", W, s, m] + 0
				pv[++n] = p; cv[n] = c; d = pct(p, c)
				if (lo == "" || d < lo) lo = d
				if (hi == "" || d > hi) hi = d
				worse = better[m] == "lower" ? d : -d
				if (worse > 100 * bound[m]) {
					printf "FLAG %s seed %d %s: %.6g -> %.6g (%+.2f%%) is past its %.0f%% bound\n", W, s, m, p, c, d, 100 * bound[m]
					bad = 1
				}
			}
			pm = median(pv, n); cm = median(cv, n)
			printf "%-26s %14.6g %14.6g %+8.2f%%   %-19s %4.0f%%\n", m, pm, cm, pct(pm, cm), sprintf("%+.2f..%+.2f%%", lo, hi), 100 * bound[m]
		}
	}
	printf "\nclaim %s on %s (%s is better), per seed:\n", claim, claimwl, better[claim]
	for (s = 1; s <= 10; s++) {
		p = val["parent", claimwl, s, claim] + 0; c = val["change", claimwl, s, claim] + 0
		won = (better[claim] == "lower" && c < p) || (better[claim] == "higher" && c > p)
		wins += won
		printf "  seed %2d: %.6g -> %.6g (%+.2f%%)%s\n", s, p, c, pct(p, c), won ? "" : "  NOT BETTER"
	}
	printf "claim %s: better at %d of 10 seeds\n", wins == 10 ? "HOLDS" : "FAILS", wins
	if (bad) printf "model-check: a run failed or a sim metric moved past its bound (FLAG lines above)\n"
	exit (wins < 10 || bad)
}' "$out/values.txt"
