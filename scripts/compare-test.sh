#!/bin/sh
# Replays the verdicts of scripts/compare.awk on canned result lines, one
# fixture per rule, and checks each fixture's exit status and verdict line.
# Builds and runs nothing, so `make verify` runs it.
#
# usage, from the root of a checkout: sh scripts/compare-test.sh
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

# runs WORKLOAD COUNT GAIN [SIDE N NAME VALUE]...: writes canned lines for
# COUNT runs a side of WORKLOAD. Every run is correct with no failed op and
# the same sim_digest. The parent's sim_cpu_s, host_cpu_s and sim_elapsed_s
# rise 1 % a run; the change's two cpu metrics are GAIN times the parent's.
# Each SIDE N NAME VALUE then sets one run's value. Sets wls and count for
# expect.
runs() {
	wls=$1 count=$2
	awk -v wl="$1" -v count="$2" -v gain="$3" -v over="$*" 'BEGIN {
		no = split(over, o, " ")
		for (n = 1; n <= count; n++)
			for (k = 0; k < 2; k++) {
				side = k ? "change" : "parent"
				g = k ? gain : 1
				v["sim_digest"] = "9979bb78"; v["correct"] = "true"; v["failed"] = 0
				v["sim_cpu_s"] = 7.65 * (1 + n / 100) * g
				v["host_cpu_s"] = 6 * (1 + n / 100) * g
				v["sim_elapsed_s"] = 90 * (1 + n / 100)
				for (i = 4; i + 3 <= no; i += 4)
					if (o[i] == side && o[i + 1] == n)
						v[o[i + 2]] = o[i + 3]
				printf "%s %s %d {\"sim_digest\":\"%s\",\"failed_checks\":null}\n", side, wl, n, v["sim_digest"]
				printf "%s %s %d {\"correct\":%s,\"failed\":%s,\"metrics\":{", side, wl, n, v["correct"], v["failed"]
				printf "\"host_cpu_s\":{\"value\":%s,\"unit\":\"s\"},", v["host_cpu_s"]
				printf "\"sim_cpu_s\":{\"value\":%s,\"unit\":\"s\"},", v["sim_cpu_s"]
				printf "\"sim_elapsed_s\":{\"value\":%s,\"unit\":\"s\"}}}\n", v["sim_elapsed_s"]
			}
	}' >"$tmp/runs.txt"
}

# expect NAME STATUS LINE VAR=VALUE...: judges the canned lines with the
# compare.awk variables given and wants exit status STATUS and LINE in the
# output; has LINE wants one more line in the same output
expect() {
	name=$1 want=$2 line=$3
	shift 3
	for a; do
		set -- "$@" -v "$a"
		shift
	done
	set -- -v rev=PARENT -v wls="$wls" -v count="$count" -v wl="$wls" "$@"
	out=$(awk -f "$root/scripts/compare.awk" "$@" "$root/BENCHMARK.json" "$tmp/runs.txt" 2>&1)
	got=$?
	if [ "$got" -ne "$want" ]; then
		echo "FAIL $name: exit status $got, want $want" >&2
		fail=1
	fi
	has "$line"
}
has() {
	if ! printf '%s\n' "$out" | grep -qxF "$1"; then
		printf 'FAIL %s: no line "%s" in\n%s\n' "$name" "$1" "$out" >&2
		fail=1
	fi
}

differs="digest-check: the working tree does not reproduce PARENT's simulated product, or a run failed"
flagged="model-check: a run failed or a sim metric moved past its bound (FLAG lines above)"
runs ingest-drain 3 1
expect "digest: equal digests" 0 "digest-check: sim_digest equal to PARENT on every workload at seeds 1-3, no failed ops" mode=digest
runs ingest-drain 3 1 change 2 sim_digest 0ddba11
expect "digest: a sim_digest differs" 1 "$differs" mode=digest
has "DIFFER ingest-drain seed 2: parent 9979bb78, working tree 0ddba11"
runs ingest-drain 3 1 change 3 correct false
expect "digest: a run not correct" 1 "$differs" mode=digest
has "FLAG ingest-drain seed 3 change: correct false, failed 0"

runs oltp-mixed 10 0.77
expect "model: better at every seed" 0 "claim HOLDS: better at 10 of 10 seeds" mode=model claim=sim_cpu_s
runs oltp-mixed 10 0.77 change 4 sim_cpu_s 7.956
expect "model: not better at one seed" 1 "claim FAILS: better at 9 of 10 seeds" mode=model claim=sim_cpu_s
has "  seed  4: 7.956 -> 7.956 (+0.00%)  NOT BETTER"
runs oltp-mixed 10 0.77 change 7 sim_elapsed_s 102.1
expect "model: a sim metric past its bound" 1 "$flagged" mode=model claim=sim_cpu_s
has "FLAG oltp-mixed seed 7 sim_elapsed_s: 96.3 -> 102.1 (+6.02%) is past its 5% bound"
runs oltp-mixed 10 0.77 parent 9 failed 1
expect "model: a failed op" 1 "$flagged" mode=model claim=sim_cpu_s
has "FLAG oltp-mixed seed 9 parent: correct true, failed 1"

meets="claim MEETS the paired-runs rule (>= 10 pairs, >= 9/10 wins, medians apart by more than the parent quartile distance)"
fails="claim DOES NOT MEET the paired-runs rule (>= 10 pairs, >= 9/10 wins, medians apart by more than the parent quartile distance)"
runs maintain-recover 10 0.77
expect "pairs: the rule met" 0 "$meets" mode=pairs claim=host_cpu_s seed=1
has "sim_digest equal in all 10 pairs"
runs maintain-recover 10 0.77 change 2 host_cpu_s 7 change 5 host_cpu_s 7
expect "pairs: 8 wins in 10" 1 "$fails" mode=pairs claim=host_cpu_s seed=1
runs maintain-recover 10 0.99
expect "pairs: medians within the parent's quartile distance" 1 "$fails" mode=pairs claim=host_cpu_s seed=1
runs maintain-recover 9 0.77
expect "pairs: fewer than 10 pairs" 1 "$fails" mode=pairs claim=host_cpu_s seed=1
runs maintain-recover 10 0.77 parent 6 failed 1
expect "pairs: a failed op" 1 "$meets" mode=pairs claim=host_cpu_s seed=1
has "FLAG maintain-recover pair 6 parent: correct true, failed 1"
runs maintain-recover 10 0.77 parent 3 sim_digest 0ddba11
expect "pairs: a sim_digest differs" 1 "$meets" mode=pairs claim=host_cpu_s seed=1
has "sim_digest differs between the sides in 1 of 10 pairs"
expect "pairs -model: a sim_digest differs" 0 "$meets" mode=pairs claim=host_cpu_s seed=1 model=1
has "sim_digest differs between the sides in 1 of 10 pairs (-model: not a failure)"

[ "$fail" -eq 0 ] && echo "compare-test: every verdict as expected"
exit "$fail"
