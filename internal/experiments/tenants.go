package experiments

import (
	"fmt"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/gateway"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// The tenants experiment exercises the multi-tenant gateway beyond what the
// paper measures: a noisy-neighbor isolation study (can a tenant running
// dedup-hostile traffic blow a quiet gold tenant's p99?) and a fleet sweep
// sharing one cluster across many tenants in the built-in SLO classes.

// tenantIsolation measures a quiet gold tenant's small-write p99 three ways:
// alone, sharing the cluster with an unthrottled noisy neighbor (two client
// sessions) running dedup-hostile traffic (low-dup random writes — every block fingerprints,
// misses, and flushes), and sharing with the same neighbor held to the
// bronze SLO. The headline is the before/after p99 delta: isolation off
// lets the neighbor blow the quiet tenant's tail; the bronze token bucket
// keeps it near solo. Each row reports the quiet p99, its ratio to the solo
// baseline, and what the noisy tenant got: bytes admitted, throttles and the
// total admission wait it ate.
func tenantIsolation(sc Scale) Table {
	span := sc.bytes(16 << 20)
	// The neighbor writes across a wide span: many stripe objects, many PGs,
	// so its queue depth lands on the OSDs instead of serializing on a
	// handful of object locks.
	noisySpan := sc.bytes(256 << 20)
	type tenantCase struct {
		label string
		noisy bool
		slo   gateway.SLO
	}
	// isolated is one run: the quiet tenant's p99, which the table divides
	// by the solo run's, and the noisy tenant's cells.
	type isolated struct {
		p99Ms float64
		noisy []string
	}
	cases := []tenantCase{
		{label: "quiet gold, solo (baseline)"},
		{label: "+ noisy neighbor, isolation off", noisy: true, slo: gateway.SLO{}},
		{label: "+ noisy neighbor, bronze SLO", noisy: true, slo: gateway.Bronze},
	}
	runs := Runs(sc, cases, func(tb *Testbed, tc tenantCase) isolated {
		h := tb.harness(910, 4, 4)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.HitSet.HitCount = 1000
		})
		coord := gateway.New(h.c.Metrics(), 0)
		quiet := must(coord.Register("quiet", gateway.Gold))
		qc := s.Client("client.quiet")
		qc.SetTenant("quiet")

		// Prefill the quiet dataset through a plain device so the tenant's
		// latency histogram holds only the measured phase.
		prefill := h.dedupDevice("quiet", span, s)
		h.run(func(p *sim.Proc) {
			runFIO(p, prefill, workload.FIOConfig{
				BlockSize: 64 << 10, Span: span, Pattern: workload.SeqWrite,
				DedupPct: 50, Threads: 8, IODepth: 4, Seed: 91,
			})
			s.Engine().DrainAndWait(p)
		})

		// The measured quiet device shares the prefilled object namespace but
		// routes every op through the tenant's admission path.
		qdev := must(client.NewBlockDevice("quiet", span, 1<<20, quiet.Backend(&client.DedupBackend{Client: qc})))
		qdev.SetTrace(h.c.Trace())
		qdev.SetTenant("quiet")

		var noisy *gateway.Tenant
		if tc.noisy {
			noisy = must(coord.Register("noisy", tc.slo))
			// The neighbor is two client sessions on one volume, 8 threads x
			// 4 deep each (64 outstanding 64KB writes): one session's 10GbE
			// link, at 57us per write, would cap it below what the OSDs absorb.
			for i := range 2 {
				nc := s.Client(fmt.Sprintf("client.noisy%d", i))
				nc.SetTenant("noisy")
				ndev := must(client.NewBlockDevice("noisy", noisySpan, 1<<20, noisy.Backend(&client.DedupBackend{Client: nc})))
				ndev.SetTrace(h.c.Trace())
				ndev.SetTenant("noisy")
				// Daemon: saturates for as long as the measured phase runs,
				// then the engine stops with the quiet proc.
				h.eng.GoDaemon("noisy", func(p *sim.Proc) {
					workload.RunFIO(p, ndev, workload.FIOConfig{
						BlockSize: 64 << 10, Span: noisySpan, Pattern: workload.RandWrite,
						DedupPct: 0, Threads: 8, IODepth: 4, Seed: 95 + int64(i),
						Ops: 1 << 30,
					})
				})
			}
		}

		h.run(func(p *sim.Proc) {
			if tc.noisy {
				p.Sleep(100 * time.Millisecond) // let the neighbor fill the OSD queues
			}
			runFIO(p, qdev, workload.FIOConfig{
				BlockSize: 16 << 10, Span: span, Pattern: workload.RandWrite,
				DedupPct: 50, Threads: 2, IODepth: 2, Seed: 94,
				Ops: 256,
			})
		})

		r := isolated{
			p99Ms: float64(quiet.Stats().P99Lat) / float64(time.Millisecond),
			noisy: []string{"0", "0", f2(0)},
		}
		if tc.noisy {
			nst := noisy.Stats()
			r.noisy = []string{fmt.Sprint(nst.Bytes / 1e6), fmt.Sprint(nst.Throttled), f2(nst.QueueWait.Seconds())}
		}
		return r
	})
	t := Table{
		Title:   "Tenants: quiet gold tenant 16KB randwrite p99 vs noisy neighbor (dedup-hostile 64KB randwrite)",
		Columns: []string{"config", "quiet p99 ms", "vs solo", "noisy MB", "noisy throttled", "noisy wait s"},
		Notes: []string{
			"shape target: bronze SLO holds quiet p99 within 1.5x of solo; isolation off degrades it >=3x",
			"noisy traffic is 0%-dup random writes: every block fingerprints, misses, and flushes",
		},
	}
	for i, r := range runs {
		vsSolo := 0.0
		if solo := runs[0].p99Ms; solo > 0 {
			vsSolo = r.p99Ms / solo
		}
		t.Rows = append(t.Rows, append([]string{cases[i].label, f2(r.p99Ms), f2(vsSolo)}, r.noisy...))
	}
	return t
}

// tenantFleet shares one cluster across many tenants (1000 at full scale)
// round-robined over the built-in SLO classes, all submitting concurrently
// through a slot-bounded coordinator, and reports per-class admission
// totals: weighted SFQ should let gold through with the least queueing
// while bronze absorbs the wait.
func tenantFleet(sc Scale) Table {
	return Table{
		Title:   "Tenants: fleet of tenants round-robined over gold/silver/bronze, 64-slot coordinator",
		Columns: []string{"class", "tenants", "ops", "MB", "throttled", "avg wait ms"},
		Rows:    Runs(sc, []int64{915}, func(tb *Testbed, seed int64) [][]string { return fleetRun(tb, sc, seed) })[0],
		Notes:   []string{"shape target: gold's average admission wait is the lowest of the three classes"},
	}
}

func fleetRun(tb *Testbed, sc Scale, seed int64) [][]string {
	h := tb.harness(seed, 4, 4)
	pool, gw := h.rawPool("fleet", rados.ReplicatedN(2))
	coord := gateway.New(h.c.Metrics(), 64)
	n := sc.countMin(1000, 250)
	classes := []gateway.SLO{gateway.Gold, gateway.Silver, gateway.Bronze}
	tenants := make([]*gateway.Tenant, n)
	for i := range tenants {
		tenants[i] = must(coord.Register(fmt.Sprintf("t%04d", i), classes[i%len(classes)]))
	}
	const opBytes = 64 << 10
	buf := make([]byte, opBytes)
	h.run(func(p *sim.Proc) {
		for i, tn := range tenants {
			p.Go("tenant", func(q *sim.Proc) {
				for k := 0; k < 4; k++ {
					oid := fmt.Sprintf("obj.%d.%d", i, k)
					tn.Do(q, opBytes, func(r *sim.Proc) {
						check(gw.Write(r, pool, oid, 0, buf))
					})
				}
			})
		}
	})

	var rows [][]string
	for _, ct := range coord.Totals() {
		avgWaitMs := 0.0
		if ct.Ops > 0 {
			avgWaitMs = float64(ct.QueueWait) / float64(ct.Ops) / float64(time.Millisecond)
		}
		rows = append(rows, []string{
			ct.Class, fmt.Sprint(ct.Tenants), fmt.Sprint(ct.Ops),
			fmt.Sprint(ct.Bytes / 1e6), fmt.Sprint(ct.Throttled), f2(avgWaitMs),
		})
	}
	return rows
}

// tenantsTables runs both tenant tables as one experiment.
func tenantsTables(sc Scale) []Table {
	return []Table{tenantIsolation(sc), tenantFleet(sc)}
}
