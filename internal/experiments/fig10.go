package experiments

import (
	"strconv"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// Fig10Row is one bar/line pair of Figure 10: latency and CPU usage for one
// configuration of 8KB random I/O.
type Fig10Row struct {
	Config  string
	Op      string // "randwrite" / "randread"
	Latency time.Duration
	CPUPct  float64
}

// cpuWindow measures cluster CPU utilization (%) across a measured phase.
type cpuWindow struct {
	h      *harness
	busy0  time.Duration
	start  sim.Time
	nCores float64
}

func startCPUWindow(h *harness) *cpuWindow {
	return &cpuWindow{h: h, busy0: h.c.HostCPUBusy(), start: h.eng.Now(), nCores: float64(h.c.HostCount() * 12)}
}

func (w *cpuWindow) pct() float64 {
	elapsed := (w.h.eng.Now() - w.start).Duration()
	if elapsed <= 0 {
		return 0
	}
	busy := w.h.c.HostCPUBusy() - w.busy0
	return 100 * float64(busy) / (float64(elapsed) * w.nCores)
}

// Fig10 reproduces Figure 10: 8KB random write and random read latency/CPU
// on a 32KB-chunk system, FIO 4 threads × 4 iodepth, for:
//
//   - Original:        the unmodified store.
//   - Proposed:        post-processing dedup with rate control running; for
//     reads the data has been flushed to the chunk pool, so reads redirect.
//   - Proposed-flush:  every write deduplicates synchronously (worst case).
//   - Proposed-cache:  data stays cached in the metadata pool (writes update
//     only the chunk map; reads are served like the original).
func Fig10(sc Scale) []Fig10Row {
	span := sc.bytes(4 << 20)
	ops := sc.count(1500)
	fioW := workload.FIOConfig{BlockSize: 8 << 10, Span: span, Pattern: workload.RandWrite,
		DedupPct: 20, Threads: 4, IODepth: 4, Ops: ops, Seed: 71}
	fioR := fioW
	fioR.Pattern = workload.RandRead

	var rows []Fig10Row
	record := func(config, op string, res workload.FIOResult, cpu float64) {
		rows = append(rows, Fig10Row{Config: config, Op: op, Latency: res.MeanLatency(), CPUPct: cpu})
	}

	// --- Original -------------------------------------------------------
	{
		h := sc.newHarness(301, 4, 4)
		dev := h.rawDevice("img", span, 0, rados.ReplicatedN(2))
		h.run(func(p *sim.Proc) { _ = workload.Prefill(p, dev, fioW) })
		w := startCPUWindow(h)
		var res workload.FIOResult
		h.run(func(p *sim.Proc) { res = workload.RunFIO(p, dev, fioW) })
		record("Original", "randwrite", res, w.pct())
		w = startCPUWindow(h)
		h.run(func(p *sim.Proc) { res = workload.RunFIO(p, dev, fioR) })
		record("Original", "randread", res, w.pct())
	}

	// --- Proposed (post-processing, engine + rate control active) --------
	{
		h := sc.newHarness(302, 4, 4)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.HitSet.HitCount = 1000 // measure the non-cached path
		})
		dev := h.dedupDevice("img", span, s)
		h.run(func(p *sim.Proc) { _ = workload.Prefill(p, dev, fioW) })
		s.StartEngine()
		w := startCPUWindow(h)
		var res workload.FIOResult
		h.run(func(p *sim.Proc) { res = workload.RunFIO(p, dev, fioW) })
		record("Proposed", "randwrite", res, w.pct())
		// Reads against flushed data: the redirection path.
		h.run(func(p *sim.Proc) { s.Engine().DrainAndWait(p) })
		s.StartEngine()
		w = startCPUWindow(h)
		h.run(func(p *sim.Proc) { res = workload.RunFIO(p, dev, fioR) })
		record("Proposed", "randread", res, w.pct())
	}

	// --- Proposed-flush (synchronous dedup on every write) ---------------
	{
		h := sc.newHarness(303, 4, 4)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.Mode = core.ModeFlushThrough
			cfg.HitSet.HitCount = 1000
		})
		dev := h.dedupDevice("img", span, s)
		h.run(func(p *sim.Proc) { _ = workload.Prefill(p, dev, fioW) })
		w := startCPUWindow(h)
		var res workload.FIOResult
		h.run(func(p *sim.Proc) { res = workload.RunFIO(p, dev, fioW) })
		record("Proposed-flush", "randwrite", res, w.pct())
	}

	// --- Proposed-cache (data stays in the metadata pool) ----------------
	{
		h := sc.newHarness(304, 4, 4)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.HitSet.HitCount = 1 // everything hot: nothing is flushed
		})
		dev := h.dedupDevice("img", span, s)
		h.run(func(p *sim.Proc) { _ = workload.Prefill(p, dev, fioW) })
		w := startCPUWindow(h)
		var res workload.FIOResult
		h.run(func(p *sim.Proc) { res = workload.RunFIO(p, dev, fioW) })
		record("Proposed-cache", "randwrite", res, w.pct())
		w = startCPUWindow(h)
		h.run(func(p *sim.Proc) { res = workload.RunFIO(p, dev, fioR) })
		record("Proposed-cache", "randread", res, w.pct())
	}
	return rows
}

// Fig10Table renders Fig10.
func Fig10Table(rows []Fig10Row) Table {
	t := Table{
		Title:   "Figure 10: 8KB random I/O latency and CPU (32KB chunks, FIO 4thr x 4qd)",
		Columns: []string{"config", "op", "mean latency", "CPU %"},
		Notes: []string{
			"paper shape: write — Proposed ~ +20% latency / ~2x CPU vs Original; Proposed-flush worst; Proposed-cache ~ Original",
			"paper shape: read — Proposed (redirected) slower than Original; Proposed-cache ~ Original",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Config, r.Op, r.Latency.Round(time.Microsecond).String(), f1(r.CPUPct)})
	}
	return t
}

// Fig11Row is one point of Figure 11: sequential throughput/latency at one
// block size.
type Fig11Row struct {
	Config     string
	Op         string
	BlockSize  int64
	Throughput float64 // MB/s aggregate over 3 clients
	Latency    time.Duration
}

// Fig11 reproduces Figure 11: 32/64/128KB sequential read and write from
// three clients, Original vs Proposed (32KB chunk system). Reads run after
// all data is flushed to the chunk pool, as in the paper.
func Fig11(sc Scale) []Fig11Row {
	var rows []Fig11Row
	span := sc.bytes(6 << 20) // per client
	const clients = 3

	type target struct {
		devs []*client.BlockDevice
		h    *harness
		s    *core.Store
	}
	build := func(seed int64, dedup bool) *target {
		h := sc.newHarness(seed, 4, 4)
		tg := &target{h: h}
		if dedup {
			tg.s = h.dedupStore(func(cfg *core.Config) {
				cfg.HitSet.HitCount = 1000
			})
		}
		for i := 0; i < clients; i++ {
			name := "img" + string(rune('a'+i))
			if dedup {
				tg.devs = append(tg.devs, h.dedupDevice(name, span, tg.s))
			} else {
				tg.devs = append(tg.devs, h.rawDevice(name, span, 0, rados.ReplicatedN(2)))
			}
		}
		return tg
	}

	runPhase := func(tg *target, bs int64, pattern workload.Pattern, seed int64) (float64, time.Duration) {
		results := make([]workload.FIOResult, clients)
		tg.h.run(func(p *sim.Proc) {
			var sigs []*sim.Signal
			for i := 0; i < clients; i++ {
				i := i
				sigs = append(sigs, p.Go("client", func(q *sim.Proc) {
					results[i] = workload.RunFIO(q, tg.devs[i], workload.FIOConfig{
						BlockSize: bs, Span: span, Pattern: pattern,
						DedupPct: 30, Threads: 2, IODepth: 4, Seed: seed + int64(i),
					})
				}))
			}
			sim.WaitAll(p, sigs...)
		})
		var tput float64
		var lat time.Duration
		for _, r := range results {
			tput += r.Throughput()
			lat += r.MeanLatency()
		}
		return tput, lat / clients
	}

	for _, bs := range []int64{32 << 10, 64 << 10, 128 << 10} {
		// Original.
		tg := build(401, false)
		tput, lat := runPhase(tg, bs, workload.SeqWrite, 81)
		rows = append(rows, Fig11Row{"Original", "write", bs, tput, lat})
		tput, lat = runPhase(tg, bs, workload.SeqRead, 82)
		rows = append(rows, Fig11Row{"Original", "read", bs, tput, lat})

		// Proposed: write with background engine + rate control; read after
		// a full flush (redirection path).
		tg = build(402, true)
		tg.s.StartEngine()
		tput, lat = runPhase(tg, bs, workload.SeqWrite, 81)
		rows = append(rows, Fig11Row{"Proposed", "write", bs, tput, lat})
		tg.h.run(func(p *sim.Proc) { tg.s.Engine().DrainAndWait(p) })
		tput, lat = runPhase(tg, bs, workload.SeqRead, 82)
		rows = append(rows, Fig11Row{"Proposed", "read", bs, tput, lat})
	}
	return rows
}

// Fig11Table renders Fig11.
func Fig11Table(rows []Fig11Row) Table {
	t := Table{
		Title:   "Figure 11: sequential performance, 3 clients (32KB chunks)",
		Columns: []string{"config", "op", "block", "MB/s", "mean latency"},
		Notes: []string{
			"paper shape: read — Proposed ~1/2 of Original at 32KB (redirection), gap narrows by 128KB (parallel chunk reads)",
			"paper shape: write — Proposed close to Original at every block size (rate-controlled background dedup)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Config, r.Op, fmtKB(r.BlockSize), f1(r.Throughput), r.Latency.Round(time.Microsecond).String(),
		})
	}
	return t
}

// fmtKB renders a byte count in whole KiB, e.g. "32KB".
func fmtKB(bs int64) string {
	return strconv.FormatInt(bs>>10, 10) + "KB"
}

// Fig10Result runs Fig10 and packages it as a machine-readable Result.
func Fig10Result(sc Scale) Result {
	return Result{Name: "fig10", Tables: []Table{Fig10Table(Fig10(sc))}}
}

// Fig11Result runs Fig11 and packages it as a machine-readable Result.
func Fig11Result(sc Scale) Result {
	return Result{Name: "fig11", Tables: []Table{Fig11Table(Fig11(sc))}}
}
