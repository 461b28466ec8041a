#!/bin/sh
# A/A tool: runs the four workloads N times in each of two interleaved sets,
# A and B, at one seed, alternating the workload order from pass to pass,
# then prints median and quartiles per set, workload and metric and flags
# whatever breaks the benchmark's own rules:
#
#   - a sim-clock metric or the sim_digest that is not bit-identical across
#     all runs of a workload (a determinism bug);
#   - a host-clock metric whose two set medians differ by more than its bound
#     in BENCHMARK.json.
#
# usage, from the root of a checkout:  sh bench/run.sh [-n runs] [-s seed] [-o dir]
# Exit status 1 if anything was flagged.
set -eu
runs=5 seed=1 out=
while getopts n:s:o: opt; do
	case $opt in
	n) runs=$OPTARG ;;
	s) seed=$OPTARG ;;
	o) out=$OPTARG ;;
	*) echo "usage: $0 [-n runs] [-s seed] [-o dir]" >&2; exit 2 ;;
	esac
done
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
[ -n "$out" ] || out=$root/.bench_build/aa
mkdir -p "$out"
: >"$out/runs.txt"

forward="ingest-drain oltp-mixed cold-ec-tier maintain-recover"
backward="maintain-recover cold-ec-tier oltp-mixed ingest-drain"
pass=0
while [ "$pass" -lt "$runs" ]; do
	pass=$((pass + 1))
	for set in A B; do
		order=$forward
		# A goes forward on odd passes, B on even ones
		if { [ "$set" = A ] && [ $((pass % 2)) -eq 0 ]; } || { [ "$set" = B ] && [ $((pass % 2)) -eq 1 ]; }; then
			order=$backward
		fi
		for w in $order; do
			echo "pass $pass set $set $w" >&2
			# two lines per run: the report (digest, clocks) and the result
			sh "$here/bench.sh" --workload "$w" --seed "$seed" --seconds 10 --trace 0 |
				tail -n 2 | sed "s/^/$set $w /" >>"$out/runs.txt"
		done
	done
done

# one line per value: "set workload metric value"; digests as metric sim_digest
awk '
{
	set = $1; w = $2; s = $0
	if (match(s, /"sim_digest":"[0-9a-f]+"/))
		print set, w, "sim_digest", substr(s, RSTART + 14, RLENGTH - 15)
	if (!match(s, /"metrics":\{/))
		next
	s = substr(s, RSTART + RLENGTH)
	while (match(s, /"[A-Za-z0-9_.-]+":\{"value":[^,]+,/)) {
		tok = substr(s, RSTART, RLENGTH)
		s = substr(s, RSTART + RLENGTH)
		name = tok; sub(/^"/, "", name); sub(/".*/, "", name)
		val = tok; sub(/.*"value":/, "", val); sub(/,$/, "", val)
		print set, w, name, val
	}
}' "$out/runs.txt" >"$out/values.txt"

# bounds and clocks: BENCHMARK.json holds one metric to a line; a metric is
# on the sim clock when its name starts with sim_ or is space_ratio
grep '"bound"' "$root/BENCHMARK.json" |
	sed 's/.*"name": "\([^"]*\)".*"bound": \([0-9.]*\).*/\1 \2/' >"$out/bounds.txt"

sort -k2,2 -k3,3 -k1,1 -k4,4n "$out/values.txt" | awk -v boundsfile="$out/bounds.txt" '
function quantile(k,    pos, lo, frac) {   # statistics.quantiles(v, n=4), exclusive method
	pos = k * (n + 1) / 4
	if (pos < 1) pos = 1
	if (pos > n) pos = n
	lo = int(pos); frac = pos - lo
	if (lo >= n) return v[n]
	return v[lo] + frac * (v[lo + 1] - v[lo])
}
function flush(    q1, med, q3, other, d, key) {
	if (n == 0) return
	key = w " " m
	if (m == "sim_digest") {
		if (distinct > 1) { printf "FLAG %s: %d different digests in set %s\n", w, distinct, set; bad = 1 }
		digest[key, set] = v[1]
	} else {
		q1 = quantile(1); med = quantile(2); q3 = quantile(3)
		printf "%-17s %-25s %s  median %-12.6g q1 %-12.6g q3 %-12.6g n %d\n", w, m, set, med, q1, q3, n
		if ((m ~ /^sim_/ || m == "space_ratio") && distinct > 1) {
			printf "FLAG %s %s: sim-clock metric not bit-identical within set %s\n", w, m, set; bad = 1
		}
		median[key, set] = med
	}
	if (set == "B") {
		if (m == "sim_digest" || m ~ /^sim_/ || m == "space_ratio") {
			other = (m == "sim_digest") ? digest[key, "A"] : median[key, "A"]
			if (other != ((m == "sim_digest") ? v[1] : med)) {
				printf "FLAG %s %s: sets A and B disagree on a sim-clock value\n", w, m; bad = 1
			}
		} else if (m in bound) {
			d = (med - median[key, "A"]) / median[key, "A"]; if (d < 0) d = -d
			if (d > bound[m]) { printf "FLAG %s %s: set medians differ by %.1f %%, bound %.1f %%\n", w, m, 100 * d, 100 * bound[m]; bad = 1 }
		}
	}
	n = 0; distinct = 0
}
BEGIN { while ((getline line < boundsfile) > 0) { split(line, f, " "); bound[f[1]] = f[2] } }
{
	if ($1 != set || $2 != w || $3 != m) { flush(); set = $1; w = $2; m = $3 }
	if (n == 0 || $4 != v[n]) distinct++
	v[++n] = $4
}
END { flush(); exit bad }'
