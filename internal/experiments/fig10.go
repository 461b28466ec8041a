package experiments

import (
	"slices"
	"strconv"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// fig10 reproduces Figure 10: 8KB random write and random read latency/CPU
// on a 32KB-chunk system, FIO 4 threads × 4 iodepth, for:
//
//   - Original:        the unmodified store.
//   - Proposed:        post-processing dedup with rate control running; for
//     reads the data has been flushed to the chunk pool, so reads redirect.
//   - Proposed-flush:  every write deduplicates synchronously (worst case).
//   - Proposed-cache:  data stays cached in the metadata pool (writes update
//     only the chunk map; reads are served like the original).
func fig10(sc Scale) []Table {
	span := sc.bytes(4 << 20)
	ops := sc.count(1500)
	fioW := workload.FIOConfig{BlockSize: 8 << 10, Span: span, Pattern: workload.RandWrite,
		DedupPct: 20, Threads: 4, IODepth: 4, Ops: ops, Seed: 71}
	fioR := fioW
	fioR.Pattern = workload.RandRead

	// measure runs cfg against dev and reports its mean latency with the
	// cluster CPU utilization (%) across the phase.
	measure := func(h *harness, dev *client.BlockDevice, config string, cfg workload.FIOConfig) []string {
		busy0, start := h.c.HostCPUBusy(), h.eng.Now()
		var res workload.FIOResult
		h.run(func(p *sim.Proc) { res = workload.RunFIO(p, dev, cfg) })
		cpuPct := 0.0
		if elapsed := (h.eng.Now() - start).Duration(); elapsed > 0 {
			cpuPct = 100 * float64(h.c.HostCPUBusy()-busy0) / (float64(elapsed) * float64(h.c.HostCount()*12))
		}
		return []string{config, cfg.Pattern.String(), us(res.MeanLatency()), f1(cpuPct)}
	}
	// dedup opens a dedup store tweaked by mut and prefills a device on it.
	dedup := func(h *harness, mut func(*core.Config)) (*core.Store, *client.BlockDevice) {
		s := h.dedupStore(mut)
		dev := h.dedupDevice("img", span, s)
		h.run(func(p *sim.Proc) { _ = workload.Prefill(p, dev, fioW) })
		return s, dev
	}
	rows := slices.Concat(Runs(sc, []func(*Testbed) [][]string{
		func(tb *Testbed) [][]string {
			h := tb.harness(301, 4, 4)
			dev := h.rawDevice("img", span, 0, rados.ReplicatedN(2))
			h.run(func(p *sim.Proc) { _ = workload.Prefill(p, dev, fioW) })
			return [][]string{measure(h, dev, "Original", fioW), measure(h, dev, "Original", fioR)}
		},
		// Post-processing, engine + rate control active.
		func(tb *Testbed) [][]string {
			h := tb.harness(302, 4, 4)
			s, dev := dedup(h, func(cfg *core.Config) {
				cfg.HitSet.HitCount = 1000 // measure the non-cached path
			})
			s.StartEngine()
			w := measure(h, dev, "Proposed", fioW)
			// Reads against flushed data: the redirection path.
			h.run(func(p *sim.Proc) { s.Engine().DrainAndWait(p) })
			s.StartEngine()
			return [][]string{w, measure(h, dev, "Proposed", fioR)}
		},
		// Synchronous dedup on every write.
		func(tb *Testbed) [][]string {
			h := tb.harness(303, 4, 4)
			_, dev := dedup(h, func(cfg *core.Config) {
				cfg.Mode = core.ModeFlushThrough
				cfg.HitSet.HitCount = 1000
			})
			return [][]string{measure(h, dev, "Proposed-flush", fioW)}
		},
		// Data stays in the metadata pool.
		func(tb *Testbed) [][]string {
			h := tb.harness(304, 4, 4)
			_, dev := dedup(h, func(cfg *core.Config) {
				cfg.HitSet.HitCount = 1 // everything hot: nothing is flushed
			})
			return [][]string{measure(h, dev, "Proposed-cache", fioW), measure(h, dev, "Proposed-cache", fioR)}
		},
	}, func(tb *Testbed, run func(*Testbed) [][]string) [][]string { return run(tb) })...)
	return []Table{{
		Title:   "Figure 10: 8KB random I/O latency and CPU (32KB chunks, FIO 4thr x 4qd)",
		Columns: []string{"config", "op", "mean latency", "CPU %"},
		Rows:    rows,
		Notes: []string{
			"paper shape: write — Proposed ~ +20% latency / ~2x CPU vs Original; Proposed-flush worst; Proposed-cache ~ Original",
			"paper shape: read — Proposed (redirected) slower than Original; Proposed-cache ~ Original",
		},
	}}
}

// fig11 reproduces Figure 11: 32/64/128KB sequential read and write from
// three clients, Original vs Proposed (32KB chunk system). Reads run after
// all data is flushed to the chunk pool, as in the paper. A row's MB/s is
// the aggregate over the 3 clients, its latency their mean.
func fig11(sc Scale) []Table {
	span := sc.bytes(6 << 20) // per client
	const clients = 3
	type fig11Case struct {
		bs    int64
		dedup bool
	}
	var cases []fig11Case
	for _, bs := range []int64{32 << 10, 64 << 10, 128 << 10} {
		cases = append(cases, fig11Case{bs, false}, fig11Case{bs, true})
	}
	rows := slices.Concat(Runs(sc, cases, func(tb *Testbed, c fig11Case) [][]string {
		config, seed := "Original", int64(401)
		if c.dedup {
			config, seed = "Proposed", 402
		}
		h := tb.harness(seed, 4, 4)
		var s *core.Store
		if c.dedup {
			s = h.dedupStore(func(cfg *core.Config) {
				cfg.HitSet.HitCount = 1000
			})
		}
		devs := make([]*client.BlockDevice, clients)
		for i := range devs {
			name := "img" + string(rune('a'+i))
			if c.dedup {
				devs[i] = h.dedupDevice(name, span, s)
			} else {
				devs[i] = h.rawDevice(name, span, 0, rados.ReplicatedN(2))
			}
		}
		phase := func(op string, pattern workload.Pattern, seed int64) []string {
			results := make([]workload.FIOResult, clients)
			h.run(func(p *sim.Proc) {
				var sigs []*sim.Signal
				for i := 0; i < clients; i++ {
					sigs = append(sigs, p.Go("client", func(q *sim.Proc) {
						results[i] = workload.RunFIO(q, devs[i], workload.FIOConfig{
							BlockSize: c.bs, Span: span, Pattern: pattern,
							DedupPct: 30, Threads: 2, IODepth: 4, Seed: seed + int64(i),
						})
					}))
				}
				sim.WaitAll(p, sigs...)
			})
			var mbps float64
			var lat time.Duration
			for _, r := range results {
				mbps += r.Throughput()
				lat += r.MeanLatency()
			}
			return []string{config, op, fmtKB(c.bs), f1(mbps), us(lat / clients)}
		}
		// Proposed writes with the background engine and rate control on,
		// and reads after a full flush (the redirection path).
		if c.dedup {
			s.StartEngine()
		}
		w := phase("write", workload.SeqWrite, 81)
		if c.dedup {
			h.run(func(p *sim.Proc) { s.Engine().DrainAndWait(p) })
		}
		return [][]string{w, phase("read", workload.SeqRead, 82)}
	})...)
	return []Table{{
		Title:   "Figure 11: sequential performance, 3 clients (32KB chunks)",
		Columns: []string{"config", "op", "block", "MB/s", "mean latency"},
		Rows:    rows,
		Notes: []string{
			"paper shape: read — Proposed ~1/2 of Original at 32KB (redirection), gap narrows by 128KB (parallel chunk reads)",
			"paper shape: write — Proposed close to Original at every block size (rate-controlled background dedup)",
		},
	}}
}

// fmtKB renders a byte count in whole KiB, e.g. "32KB".
func fmtKB(bs int64) string {
	return strconv.FormatInt(bs>>10, 10) + "KB"
}
