#!/bin/sh
# The checks ROADMAP.md's rules for claims ask for, against PARENT_REV: builds
# it in a git worktree under .bench_build/compare/ (removed on exit) and the
# working tree, runs bench/bench.sh on both sides, alternating which side runs
# first, and judges the runs with scripts/compare.awk, which states each rule.
#
# usage, from the root of a checkout (exit status 1 if the claim fails or a run
# is flagged, 2 on a usage error):
#   sh scripts/compare.sh digest PARENT_REV
#   sh scripts/compare.sh model PARENT_REV WORKLOAD METRIC
#   sh scripts/compare.sh pairs [-model] PARENT_REV WORKLOAD SEED PAIRS METRIC
# digest runs every workload at seeds 1-3 and model at seeds 1-10; pairs runs
# WORKLOAD at SEED PAIRS times a side. The change side is the live working
# tree, so do not edit Go files while it runs.
set -eu
usage() {
	[ -z "${1-}" ] || echo "compare: $1" >&2
	sed -n 's/^#   sh /usage: sh /p' "$0" >&2
	exit 2
}
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build/compare
parent=$out/parent
workloads=$(echo $(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$root/BENCHMARK.json"))
mode=${1-}
[ $# -eq 0 ] || shift
model=0 wl= seed= claim=
case $mode in
digest)
	[ $# -eq 1 ] || usage
	rev=$1 count=3
	;;
model)
	[ $# -eq 3 ] || usage
	rev=$1 wl=$2 claim=$3 count=10
	case $claim in sim_* | space_ratio) ;; *) usage "$claim is not a sim metric" ;; esac
	;;
pairs)
	[ "${1-}" != -model ] || { model=1 && shift; }
	[ $# -eq 5 ] || usage
	rev=$1 wl=$2 seed=$3 count=$4 claim=$5 workloads=$2
	;;
*) usage ;;
esac
if [ "$mode" != digest ]; then
	grep -q "{\"name\": \"$wl\", \"why\"" "$root/BENCHMARK.json" || usage "$wl is not a workload in BENCHMARK.json"
	grep -q "\"name\": \"$claim\".*\"bound\"" "$root/BENCHMARK.json" || usage "$claim is not an end-to-end metric"
fi

cleanup() { git -C "$root" worktree remove --force "$parent" 2>/dev/null || true; }
trap cleanup EXIT
trap 'exit 130' INT TERM
mkdir -p "$out"
cleanup
git -C "$root" worktree prune
git -C "$root" worktree add --quiet --detach "$parent" "$rev"

# build both sides before any run (bench.sh builds, then -h exits 0)
for dir in "$parent" "$root"; do
	echo "building $dir" >&2
	(cd "$dir" && sh bench/bench.sh -h >/dev/null 2>&1) || { echo "compare: build failed in $dir" >&2; exit 1; }
done

: >"$out/runs.txt"
for w in $workloads; do
	for n in $(seq "$count"); do
		order="parent change"
		[ $((n % 2)) -eq 1 ] || order="change parent"
		for side in $order; do
			dir=$root
			[ "$side" = change ] || dir=$parent
			echo "$w seed ${seed:-$n}, run $n of $count: $side" >&2
			(cd "$dir" && sh bench/bench.sh --workload "$w" --seed "${seed:-$n}" --seconds 10 --trace 0) |
				tail -n 2 | sed "s/^/$side $w $n /" >>"$out/runs.txt"
		done
	done
done
awk -f "$root/scripts/compare.awk" -v mode="$mode" -v rev="$rev" -v wls="$workloads" -v count="$count" \
	-v wl="$wl" -v claim="$claim" -v seed="$seed" -v model="$model" "$root/BENCHMARK.json" "$out/runs.txt"
