package experiments

import (
	"fmt"
	"time"

	"dedupstore/internal/metrics"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// The scale experiment sweeps the substrate from 16 to 256 OSDs with client
// load held proportional to cluster size (one gateway per host, a fixed
// per-client volume, PGs at 4 per OSD). A scale-out store should keep
// per-client throughput and tail latency roughly flat while aggregate
// throughput grows with the cluster; the sim-cost columns (events
// dispatched, events per op, event-heap high-water mark) track what the
// kernel pays to get there. Everything reported is derived from virtual
// time and engine counters, so the table is deterministic and golden-gated;
// wall-clock cost per configuration is measured outside the golden path
// (`make profile`, BENCH_pr.json).

// scaleCase runs one cluster size: hosts×osdsPerHost OSDs, one client
// gateway per host, each client writing perClient bytes of 32 KiB objects
// into a 2x-replicated pool with 4 concurrent streams, then reading every
// object back the same way. The events per op count setup too.
func scaleCase(tb *Testbed, sc Scale, hosts, osdsPerHost int) []string {
	const (
		opSize  = 32 << 10
		streams = 4 // concurrent ops per client
	)
	h := tb.harness(801, hosts, osdsPerHost)
	osds := hosts * osdsPerHost
	clients := hosts
	perClient := sc.bytes(24 << 20)
	opsPerClient := max(int(perClient/opSize), streams)
	pgs := 4 * osds

	pool := must(h.c.CreatePool(rados.PoolConfig{Name: "pool.scale", PGNum: uint32(pgs), Redundancy: rados.ReplicatedN(2)}))
	gws := make([]*rados.Gateway, clients)
	for i := range gws {
		gws[i] = h.c.NewGateway(fmt.Sprintf("client.scale%d", i))
	}

	writeLat := metrics.NewHistogram()
	readLat := metrics.NewHistogram()
	data := make([]byte, opSize)
	for i := range data {
		data[i] = byte(i)
	}

	// runPhase fans each client's op range across `streams` workers and
	// returns the virtual duration of the phase.
	runPhase := func(lat *metrics.Histogram, op func(q *sim.Proc, gw *rados.Gateway, oid string)) time.Duration {
		var elapsed time.Duration
		h.run(func(p *sim.Proc) {
			start := p.Now()
			var sigs []*sim.Signal
			for ci := 0; ci < clients; ci++ {
				for s := 0; s < streams; s++ {
					sigs = append(sigs, p.Go("scale.client", func(q *sim.Proc) {
						for k := s; k < opsPerClient; k += streams {
							oid := fmt.Sprintf("obj.%d.%d", ci, k)
							t0 := q.Now()
							op(q, gws[ci], oid)
							lat.Add((q.Now() - t0).Duration())
						}
					}))
				}
			}
			sim.WaitAll(p, sigs...)
			elapsed = (p.Now() - start).Duration()
		})
		return elapsed
	}

	wrote := runPhase(writeLat, func(q *sim.Proc, gw *rados.Gateway, oid string) {
		check(gw.WriteFull(q, pool, oid, data))
	})
	read := runPhase(readLat, func(q *sim.Proc, gw *rados.Gateway, oid string) {
		must(gw.Read(q, pool, oid, 0, opSize))
	})

	totalOps := clients * opsPerClient
	totalBytes := int64(totalOps) * opSize
	st := h.eng.Stats()
	writeMBps := float64(totalBytes) / 1e6 / wrote.Seconds()
	readMBps := float64(totalBytes) / 1e6 / read.Seconds()
	ms := func(d time.Duration) string { return f2(float64(d) / float64(time.Millisecond)) }
	return []string{
		fmt.Sprint(osds), fmt.Sprint(hosts), fmt.Sprint(clients), fmt.Sprint(pgs), mb(totalBytes),
		f1(writeMBps), ms(writeLat.Percentile(50)), ms(writeLat.Percentile(99)),
		f1(readMBps), ms(readLat.Percentile(50)), ms(readLat.Percentile(99)),
		fmt.Sprint(st.EventsDispatched), f1(float64(st.EventsDispatched) / float64(2*totalOps)), fmt.Sprint(st.PeakHeap),
	}
}

// scaleSweep runs the 16 -> 64 -> 256 OSD sweep.
func scaleSweep(sc Scale) []Table {
	return []Table{{
		Title: "Scaling sweep: 16 -> 256 OSDs, client load proportional to cluster size",
		Columns: []string{
			"osds", "hosts", "clients", "pgs", "data",
			"write MB/s", "wr p50 ms", "wr p99 ms",
			"read MB/s", "rd p50 ms", "rd p99 ms",
			"events", "events/op", "peak heap",
		},
		Rows: Runs(sc, []int{4, 8, 16}, func(tb *Testbed, n int) []string { return scaleCase(tb, sc, n, n) }),
		Notes: []string{
			"shape target: aggregate MB/s grows ~linearly with OSD count; p99 stays flat (per-OSD load is constant)",
			"sim cost: events dispatched and heap high-water mark are the deterministic proxies for kernel wall-clock (see `make profile` for real time)",
		},
	}}
}
