#!/bin/sh
# The "product did not change" check for a host-only change (ROADMAP.md's
# rules for claims): builds a parent revision in a git worktree and the
# working tree, runs every workload BENCHMARK.json declares at seeds 1, 2
# and 3 on both sides, and compares each pair of runs' sim_digest.
#
# usage, from the root of a checkout:
#   sh scripts/digest-check.sh PARENT_REV
# e.g.  sh scripts/digest-check.sh HEAD~1
#
# Exit status 1 if any sim_digest differs, or if any run is not correct or
# failed ops. Nothing under bench/ is edited: the parent's worktree and every
# run's output live in .bench_build/digest/, and the worktree is removed on
# exit.
set -eu
if [ $# -ne 1 ]; then
	echo "usage: $0 PARENT_REV" >&2
	exit 2
fi
rev=$1
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build/digest
parent=$out/parent
mkdir -p "$out"

cleanup() { git -C "$root" worktree remove --force "$parent" 2>/dev/null || true; }
trap cleanup EXIT
trap 'exit 130' INT TERM
cleanup
git -C "$root" worktree prune
git -C "$root" worktree add --quiet --detach "$parent" "$rev"

for dir in "$parent" "$root"; do
	echo "building $dir" >&2
	(cd "$dir" && sh bench/bench.sh -h >/dev/null 2>&1) || { echo "digest-check: build failed in $dir" >&2; exit 1; }
done

# digest DIR WORKLOAD SEED: runs one workload in DIR and sets d to its
# sim_digest; flags the run (and sets bad) if it is not correct or failed ops
bad=0
digest() {
	# the report line carries sim_digest, the result line correct and failed
	run=$(cd "$1" && sh bench/bench.sh --workload "$2" --seed "$3" --seconds 10 --trace 0 | tail -n 2)
	d=$(printf '%s\n' "$run" | sed -n 's/.*"sim_digest":"\([0-9a-f]*\)".*/\1/p' | head -n 1)
	correct=$(printf '%s\n' "$run" | sed -n 's/.*"correct":\([a-z]*\).*/\1/p' | head -n 1)
	failed=$(printf '%s\n' "$run" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p' | head -n 1)
	if [ -z "$d" ] || [ "$correct" != true ] || [ "${failed:-1}" != 0 ]; then
		echo "FLAG $2 seed $3 in $1: digest '$d', correct '$correct', failed '$failed'" >&2
		bad=1
	fi
}

workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
for workload in $workloads; do
	for seed in 1 2 3; do
		digest "$parent" "$workload" "$seed"
		was=$d
		digest "$root" "$workload" "$seed"
		if [ "$was" = "$d" ]; then
			echo "same   $workload seed $seed: $d"
		else
			echo "DIFFER $workload seed $seed: parent $was, working tree $d"
			bad=1
		fi
	done
done
if [ "$bad" -ne 0 ]; then
	echo "digest-check: the working tree does not reproduce $rev's simulated product, or a run failed" >&2
	exit 1
fi
echo "digest-check: sim_digest equal to $rev on every workload at seeds 1-3, no failed ops"
