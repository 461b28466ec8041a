package main

import (
	"fmt"
	"time"

	"dedupstore/internal/simcost"
)

// runSelfcheck proves that each metric family measures something, on
// miniature runs: a number that did not move when the thing
// it measures moved would be decoration. It prints pass or fail per item and
// returns the process exit code.
func runSelfcheck(seed int64) int {
	base := params{workload: "ingest-drain", seed: seed, seconds: 2, cost: simcost.Default(), mini: true}
	failed := 0
	item := func(name string, ok bool, detail string, args ...any) {
		verdict := "pass"
		if !ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s  %s: %s\n", verdict, name, fmt.Sprintf(detail, args...))
	}
	get := func(p params) (*run, map[string]metric) {
		r := execute(p)
		if len(r.failures) > 0 {
			item(fmt.Sprintf("run of %s at seed %d passes its correctness checks", p.workload, p.seed), false, "%v", r.failures)
		}
		return r, r.endToEnd()
	}
	within := func(x, lo, hi float64) bool { return x >= lo && x <= hi }

	r1, m1 := get(base)
	other := base
	other.seed++
	r2, m2 := get(other)
	item("(a) another seed changes the simulated statistics",
		r1.simDigest != r2.simDigest && m1["sim_write_mean_us"] != m2["sim_write_mean_us"] && m1["sim_read_mean_us"] != m2["sim_read_mean_us"],
		"digest %s vs %s, write mean %.3f vs %.3f us", r1.simDigest[:12], r2.simDigest[:12], m1["sim_write_mean_us"].Value, m2["sim_write_mean_us"].Value)

	r1b, _ := get(base)
	item("(b) the same seed repeats them exactly", r1.simDigest == r1b.simDigest, "digest %s vs %s", r1.simDigest[:12], r1b.simDigest[:12])

	slowDisk := base
	slowDisk.cost.SSDWriteBW /= 2
	_, m3 := get(slowDisk)
	item("(c) halving modelled disk write bandwidth raises sim_write_slowest2pct_us",
		m3["sim_write_slowest2pct_us"].Value > m1["sim_write_slowest2pct_us"].Value,
		"%.1f -> %.1f us", m1["sim_write_slowest2pct_us"].Value, m3["sim_write_slowest2pct_us"].Value)

	// oltp-mixed, because its op count is the only thing -seconds scales
	single := params{workload: "oltp-mixed", seed: seed, seconds: 1, cost: simcost.Default(), mini: true}
	double := single
	double.seconds *= 2
	r4a, m4a := get(single)
	_, m4 := get(double)
	wall, alloc := m4["host_wall_s"].Value/m4a["host_wall_s"].Value, m4["host_alloc_MB"].Value/m4a["host_alloc_MB"].Value
	lat := m4["sim_write_mean_us"].Value / m4a["sim_write_mean_us"].Value
	item("(d) doubling the op count doubles host cost and leaves simulated latency alone",
		within(wall, 1.6, 2.4) && within(alloc, 1.6, 2.4) && within(lat, 0.9, 1.1),
		"host_wall_s x%.2f, host_alloc_MB x%.2f (want 1.6-2.4), sim_write_mean_us x%.3f (want 0.9-1.1)", wall, alloc, lat)

	burn := single
	burn.burn = 50 * time.Microsecond
	r5, m5 := get(burn)
	item("(e) burning 50 us of host CPU per backend call raises host_wall_s and leaves the digest alone",
		m5["host_wall_s"].Value > 1.5*m4a["host_wall_s"].Value && r5.simDigest == r4a.simDigest,
		"host_wall_s %.3f -> %.3f s, digest %s vs %s", m4a["host_wall_s"].Value, m5["host_wall_s"].Value, r4a.simDigest[:12], r5.simDigest[:12])

	if failed > 0 {
		return 1
	}
	return 0
}
