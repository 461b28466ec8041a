# The verdicts of scripts/compare.sh, which reads only the runs' result lines,
# so scripts/compare-test.sh can replay them on canned lines. Variables: mode
# (digest, model or pairs), rev, wls (the workloads run), count (runs per
# workload and side), wl and claim (the claimed workload and metric), seed and
# model (pairs). Input: BENCHMARK.json, then each run's report and result line
# (bench/bench.sh's last two), prefixed "SIDE WORKLOAD N ": SIDE is parent or
# change and N counts a workload's runs from 1, the seed except in pairs mode.
# A run is flagged unless it reads correct true and failed 0. Exit status 1 on
# a flag, or if
#   digest: a sim_digest differs;
#   model:  claim on wl is not better at every seed, or a sim_* or space_ratio
#           value on any workload and seed is past its BENCHMARK.json bound;
#   pairs:  there are fewer than 10 pairs, the change wins fewer than 9 in 10,
#           the medians are no further apart than the parent's quartile
#           distance, or (unless model=1) a sim_digest differs.

# str(s, key): the value after "key": in s, without quotes
function str(s, key,    t) {
	if (!match(s, "\"" key "\": ?\"?[^\",}]+"))
		return ""
	split(substr(s, RSTART, RLENGTH), t, /": ?"?/)
	return t[2]
}

# quantile(side, w, m, k): quartile k (2 is the median) of m over runs
# 1..count, as Python's statistics.quantiles(n=4)
function quantile(side, w, m, k,    v, n, i, j, x, pos, lo) {
	n = 0
	for (i = 1; i <= count; i++)
		if ((side, w, i, m) in val)
			v[++n] = val[side, w, i, m] + 0
	for (i = 2; i <= n; i++) {
		x = v[i]
		for (j = i - 1; j >= 1 && v[j] > x; j--)
			v[j + 1] = v[j]
		v[j + 1] = x
	}
	pos = k * (n + 1) / 4
	if (pos < 1)
		pos = 1
	if (pos > n)
		pos = n
	lo = int(pos)
	return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}

function pct(p, c) { return p != 0 ? 100 * (c - p) / p : 0 }

function improved(m, p, c) { return better[m] == "lower" ? c < p : c > p }

# the end-to-end metrics of BENCHMARK.json in its order; model mode judges
# only the simulated ones
FNR == NR {
	m = str($0, "name")
	if ($0 ~ /"bound"/ && (mode != "model" || m ~ /^sim_/ || m == "space_ratio")) {
		order[++nm] = m
		better[m] = str($0, "better")
		bound[m] = str($0, "bound")
	}
	next
}

# val[side, workload, n, name]: sim_digest, correct and failed are values
# like any metric
{
	key = $1 SUBSEP $2 SUBSEP $3
	for (i = split("sim_digest correct failed", f, " "); i > 0; i--)
		if ((x = str($0, f[i])) != "")
			val[key, f[i]] = x
	s = $0
	while (match(s, /"[A-Za-z0-9_.-]+":\{"value":[^,]+/)) {
		split(substr(s, RSTART, RLENGTH), t, "\"")
		val[key, t[2]] = substr(t[5], 2)
		s = substr(s, RSTART + RLENGTH)
	}
}

END {
	unit = mode == "pairs" ? "pair" : "seed"
	nw = split(wls, W, " ")
	if (mode == "pairs")
		printf "%s at seed %d, %d pairs: parent %s vs working tree\n", wl, seed, count, rev
	else
		printf "parent %s vs working tree, seeds 1-%d, one run per side per seed\n", rev, count
	for (w = 1; w <= nw; w++)
		for (n = 1; n <= count; n++) {
			for (k = 0; k < 2; k++) {
				side = k ? "change" : "parent"
				if (val[side, W[w], n, "correct"] != "true" || val[side, W[w], n, "failed"] != "0") {
					printf "FLAG %s %s %d %s: correct %s, failed %s\n", W[w], unit, n, side, val[side, W[w], n, "correct"], val[side, W[w], n, "failed"]
					bad = 1
				}
			}
			pd = val["parent", W[w], n, "sim_digest"]
			cd = val["change", W[w], n, "sim_digest"]
			same = pd != "" && pd == cd
			differ += !same
			if (mode == "digest")
				printf "%s %s seed %d: %s\n", same ? "same  " : "DIFFER", W[w], n, same ? cd : "parent " pd ", working tree " cd
		}
	if (mode == "digest") {
		if (bad || differ) {
			print "digest-check: the working tree does not reproduce " rev "'s simulated product, or a run failed"
			exit 1
		}
		printf "digest-check: sim_digest equal to %s on every workload at seeds 1-%d, no failed ops\n", rev, count
		exit 0
	}

	# a table per workload; in model mode a value past its bound flags its run
	for (w = 1; w <= nw; w++) {
		printf "\n== %s\n%-26s %12s %12s %12s   %12s %12s %12s %8s   %-19s %s\n", W[w], "metric", "parent q1", "median", "q3", "change q1", "median", "q3", "delta", "per-" unit " min..max", "bound"
		for (i = 1; i <= nm; i++) {
			m = order[i]
			lo = hi = ""
			for (n = 1; n <= count; n++) {
				p = val["parent", W[w], n, m] + 0
				c = val["change", W[w], n, m] + 0
				d = pct(p, c)
				if (lo == "" || d < lo) lo = d
				if (hi == "" || d > hi) hi = d
				if (mode == "model" && (better[m] == "lower" ? d : -d) > 100 * bound[m]) {
					flags = flags sprintf("FLAG %s seed %d %s: %.6g -> %.6g (%+.2f%%) is past its %.0f%% bound\n", W[w], n, m, p, c, d, 100 * bound[m])
					bad = 1
				}
			}
			pm = quantile("parent", W[w], m, 2)
			cm = quantile("change", W[w], m, 2)
			printf "%-26s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g %+7.2f%%   %-19s %4.0f%%\n", m, quantile("parent", W[w], m, 1), pm, quantile("parent", W[w], m, 3), quantile("change", W[w], m, 1), cm, quantile("change", W[w], m, 3), pct(pm, cm), sprintf("%+.2f..%+.2f%%", lo, hi), 100 * bound[m]
		}
	}
	printf "%s", flags

	printf "\nclaim %s on %s (%s is better), per %s:\n", claim, wl, better[claim], unit
	for (n = 1; n <= count; n++) {
		p = val["parent", wl, n, claim] + 0
		c = val["change", wl, n, claim] + 0
		won = improved(claim, p, c)
		wins += won
		printf "  %s %2d: %.6g -> %.6g (%+.2f%%)%s\n", unit, n, p, c, pct(p, c), won ? "" : "  NOT BETTER"
	}
	if (mode == "model") {
		printf "claim %s: better at %d of %d seeds\n", wins == count ? "HOLDS" : "FAILS", wins, count
		if (bad)
			print "model-check: a run failed or a sim metric moved past its bound (FLAG lines above)"
		exit wins < count || bad
	}

	pm = quantile("parent", wl, claim, 2)
	cm = quantile("change", wl, claim, 2)
	iqr = quantile("parent", wl, claim, 3) - quantile("parent", wl, claim, 1)
	gap = cm > pm ? cm - pm : pm - cm
	ok = count >= 10 && wins * 10 >= 9 * count && improved(claim, pm, cm) && gap > iqr
	printf "claim %s (%s is better): %d/%d pairs won; medians %.6g -> %.6g, %.6g apart, parent quartile distance %.6g\n", claim, better[claim], wins, count, pm, cm, gap, iqr
	if (differ)
		printf "sim_digest differs between the sides in %d of %d pairs%s\n", differ, count, model ? " (-model: not a failure)" : ""
	else
		printf "sim_digest equal in all %d pairs\n", count
	printf "claim %s the paired-runs rule (>= 10 pairs, >= 9/10 wins, medians apart by more than the parent quartile distance)\n", ok ? "MEETS" : "DOES NOT MEET"
	exit !ok || bad || (differ && !model)
}
