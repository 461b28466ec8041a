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

// TenantIsolationRow is one configuration of the noisy-neighbor study.
type TenantIsolationRow struct {
	Config     string
	QuietP99Ms float64
	VsSolo     float64 // quiet p99 relative to the solo baseline
	NoisyMB    int64   // bytes the noisy tenant got admitted, MB
	NoisyThrot int64
	NoisyWaitS float64 // total admission wait the noisy tenant ate, seconds
}

// TenantIsolation measures a quiet gold tenant's small-write p99 three ways:
// alone, sharing the cluster with an unthrottled noisy neighbor (two client
// sessions) running dedup-hostile traffic (low-dup random writes — every block fingerprints,
// misses, and flushes), and sharing with the same neighbor held to the
// bronze SLO. The headline is the before/after p99 delta: isolation off
// lets the neighbor blow the quiet tenant's tail; the bronze token bucket
// keeps it near solo.
func TenantIsolation(sc Scale) []TenantIsolationRow {
	span := sc.bytes(16 << 20)
	// The neighbor writes across a wide span: many stripe objects, many PGs,
	// so its queue depth lands on the OSDs instead of serializing on a
	// handful of object locks.
	noisySpan := sc.bytes(256 << 20)
	cases := []struct {
		label string
		noisy bool
		slo   gateway.SLO
	}{
		{label: "quiet gold, solo (baseline)"},
		{label: "+ noisy neighbor, isolation off", noisy: true, slo: gateway.SLO{}},
		{label: "+ noisy neighbor, bronze SLO", noisy: true, slo: gateway.Bronze},
	}

	var rows []TenantIsolationRow
	solo := 0.0
	for _, tc := range cases {
		h := sc.newHarness(910, 4, 4)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.HitSet.HitCount = 1000
		})
		coord := gateway.New(h.c.Metrics(), 0)
		quiet, err := coord.Register("quiet", gateway.Gold)
		if err != nil {
			panic(err)
		}
		qc := s.Client("client.quiet")
		qc.SetTenant("quiet")

		// Prefill the quiet dataset through a plain device so the tenant's
		// latency histogram holds only the measured phase.
		prefill := h.dedupDevice("quiet", span, s)
		h.run(func(p *sim.Proc) {
			res := workload.RunFIO(p, prefill, workload.FIOConfig{
				BlockSize: 64 << 10, Span: span, Pattern: workload.SeqWrite,
				DedupPct: 50, Threads: 8, IODepth: 4, Seed: 91,
			})
			if res.Errors > 0 {
				panic(fmt.Sprintf("tenants prefill: %d errors", res.Errors))
			}
			s.Engine().DrainAndWait(p)
		})

		// The measured quiet device shares the prefilled object namespace but
		// routes every op through the tenant's admission path.
		qdev, err := client.NewBlockDevice("quiet", span, 1<<20,
			quiet.Backend(&client.DedupBackend{Client: qc}))
		if err != nil {
			panic(err)
		}
		qdev.SetTrace(h.c.Trace())
		qdev.SetTenant("quiet")

		var noisy *gateway.Tenant
		if tc.noisy {
			noisy, err = coord.Register("noisy", tc.slo)
			if err != nil {
				panic(err)
			}
			// The neighbor is two client sessions on one volume, 8 threads x
			// 4 deep each (64 outstanding 64KB writes): one session's 10GbE
			// link, at 57us per write, would cap it below what the OSDs absorb.
			for i := range 2 {
				nc := s.Client(fmt.Sprintf("client.noisy%d", i))
				nc.SetTenant("noisy")
				ndev, err := client.NewBlockDevice("noisy", noisySpan, 1<<20,
					noisy.Backend(&client.DedupBackend{Client: nc}))
				if err != nil {
					panic(err)
				}
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
			res := workload.RunFIO(p, qdev, workload.FIOConfig{
				BlockSize: 16 << 10, Span: span, Pattern: workload.RandWrite,
				DedupPct: 50, Threads: 2, IODepth: 2, Seed: 94,
				Ops: 256,
			})
			if res.Errors > 0 {
				panic(fmt.Sprintf("tenants measured phase (%s): %d errors", tc.label, res.Errors))
			}
		})

		qst := quiet.Stats()
		row := TenantIsolationRow{
			Config:     tc.label,
			QuietP99Ms: float64(qst.P99Lat) / float64(time.Millisecond),
		}
		if tc.noisy {
			nst := noisy.Stats()
			row.NoisyMB = nst.Bytes / 1e6
			row.NoisyThrot = nst.Throttled
			row.NoisyWaitS = nst.QueueWait.Seconds()
		}
		if solo == 0 {
			solo = row.QuietP99Ms
		}
		if solo > 0 {
			row.VsSolo = row.QuietP99Ms / solo
		}
		rows = append(rows, row)
	}
	return rows
}

// TenantIsolationTable renders the noisy-neighbor study.
func TenantIsolationTable(rows []TenantIsolationRow) Table {
	t := Table{
		Title:   "Tenants: quiet gold tenant 16KB randwrite p99 vs noisy neighbor (dedup-hostile 64KB randwrite)",
		Columns: []string{"config", "quiet p99 ms", "vs solo", "noisy MB", "noisy throttled", "noisy wait s"},
		Notes: []string{
			"shape target: bronze SLO holds quiet p99 within 1.5x of solo; isolation off degrades it >=3x",
			"noisy traffic is 0%-dup random writes: every block fingerprints, misses, and flushes",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Config, f2(r.QuietP99Ms), f2(r.VsSolo),
			fmt.Sprint(r.NoisyMB), fmt.Sprint(r.NoisyThrot), f2(r.NoisyWaitS),
		})
	}
	return t
}

// TenantFleetRow aggregates one SLO class of the fleet sweep.
type TenantFleetRow struct {
	Class     string
	Tenants   int
	Ops       int64
	MB        int64
	Throttled int64
	AvgWaitMs float64
}

// TenantFleet shares one cluster across many tenants (1000 at full scale)
// round-robined over the built-in SLO classes, all submitting concurrently
// through a slot-bounded coordinator, and reports per-class admission
// totals: weighted SFQ should let gold through with the least queueing
// while bronze absorbs the wait.
func TenantFleet(sc Scale) []TenantFleetRow {
	h := sc.newHarness(915, 4, 4)
	pool, gw := h.rawPool("fleet", rados.ReplicatedN(2))
	coord := gateway.New(h.c.Metrics(), 64)
	n := sc.countMin(1000, 250)
	classes := []gateway.SLO{gateway.Gold, gateway.Silver, gateway.Bronze}
	tenants := make([]*gateway.Tenant, n)
	for i := range tenants {
		t, err := coord.Register(fmt.Sprintf("t%04d", i), classes[i%len(classes)])
		if err != nil {
			panic(err)
		}
		tenants[i] = t
	}
	const opBytes = 64 << 10
	buf := make([]byte, opBytes)
	h.run(func(p *sim.Proc) {
		for i, tn := range tenants {
			i, tn := i, tn
			p.Go("tenant", func(q *sim.Proc) {
				for k := 0; k < 4; k++ {
					oid := fmt.Sprintf("obj.%d.%d", i, k)
					tn.Do(q, opBytes, func(r *sim.Proc) {
						if err := gw.Write(r, pool, oid, 0, buf); err != nil {
							panic(err)
						}
					})
				}
			})
		}
	})

	var rows []TenantFleetRow
	for _, ct := range coord.Totals() {
		r := TenantFleetRow{
			Class: ct.Class, Tenants: ct.Tenants, Ops: ct.Ops,
			MB: ct.Bytes / 1e6, Throttled: ct.Throttled,
		}
		if ct.Ops > 0 {
			r.AvgWaitMs = float64(ct.QueueWait) / float64(ct.Ops) / float64(time.Millisecond)
		}
		rows = append(rows, r)
	}
	return rows
}

// TenantFleetTable renders the fleet sweep.
func TenantFleetTable(rows []TenantFleetRow) Table {
	t := Table{
		Title:   "Tenants: fleet of tenants round-robined over gold/silver/bronze, 64-slot coordinator",
		Columns: []string{"class", "tenants", "ops", "MB", "throttled", "avg wait ms"},
		Notes: []string{
			"shape target: gold's average admission wait is the lowest of the three classes",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Class, fmt.Sprint(r.Tenants), fmt.Sprint(r.Ops),
			fmt.Sprint(r.MB), fmt.Sprint(r.Throttled), f2(r.AvgWaitMs),
		})
	}
	return t
}

// TenantsResult runs both tenant tables and packages them as a Result.
func TenantsResult(sc Scale) Result {
	return Result{Name: "tenants", Tables: []Table{
		TenantIsolationTable(TenantIsolation(sc)),
		TenantFleetTable(TenantFleet(sc)),
	}}
}
