package experiments

import (
	"fmt"
	"time"

	"dedupstore/internal/core"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// The qos experiment exercises the per-OSD op scheduler directly, beyond
// what the paper measures: an interference matrix (client latency while each
// background class runs flat out). The ablation of the §4.4.2 watermark
// controller against a static dedup-class weight reads fig14's runs.

// qosMatrix measures client small-write latency against a deduplicated
// dataset while, in turn, nothing / dedup flush / recovery / scrub / GC runs
// in the background, one row per class. Rate control is off so the matrix
// isolates the scheduler's static weights and depth caps.
func qosMatrix(sc Scale) []Table {
	span := sc.bytes(16 << 20)
	type bgCase struct {
		label string
		cls   qos.Class
		// prep runs after the dataset is loaded and drained, before the
		// measured phase.
		prep func(h *harness, s *core.Store)
		// bg is spawned concurrently with the measured client workload
		// (nil = baseline).
		bg func(h *harness, s *core.Store, p *sim.Proc)
	}
	cases := []bgCase{
		{label: "none (baseline)", cls: qos.NumClasses},
		{
			// The dataset is re-dirtied before the measured phase (below);
			// starting the engine gives the dedup class a full backlog.
			label: "dedup flush backlog", cls: qos.Dedup,
			bg: func(h *harness, s *core.Store, p *sim.Proc) { s.StartEngine() },
		},
		{
			// Two fresh devices on distinct hosts: recovery re-fills both.
			label: "recovery", cls: qos.Recovery,
			prep: func(h *harness, s *core.Store) {
				for _, id := range []int{0, 5} {
					check(h.c.FailOSD(id))
					must(h.c.ReplaceOSD(id))
				}
			},
			bg: func(h *harness, s *core.Store, p *sim.Proc) { h.c.Recover(p) },
		},
		{
			label: "scrub", cls: qos.Scrub,
			bg: func(h *harness, s *core.Store, p *sim.Proc) {
				for i := 0; i < 3; i++ {
					h.c.Scrub(p, s.MetaPool(), false)
					h.c.Scrub(p, s.ChunkPool(), false)
				}
			},
		},
		{
			label: "gc", cls: qos.GC,
			bg: func(h *harness, s *core.Store, p *sim.Proc) {
				for i := 0; i < 3; i++ {
					must(s.GC(p))
				}
			},
		},
	}

	rows := Runs(sc, cases, func(tb *Testbed, bc bgCase) []string {
		h := tb.harness(901, 4, 4)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.Rate.Enabled = false // static weights: the scheduler alone
			cfg.HitSet.HitCount = 1000
			cfg.DedupThreads = 8
		})
		dev := h.dedupDevice("img", span, s)
		load := workload.FIOConfig{
			BlockSize: 64 << 10, Span: span, Pattern: workload.SeqWrite,
			DedupPct: 50, Threads: 8, IODepth: 4, Seed: 91,
		}
		h.run(func(p *sim.Proc) {
			runFIO(p, dev, load)
			s.Engine().DrainAndWait(p)
		})
		// Re-dirty the dataset (no drain) in EVERY case so all rows measure
		// against the same store state; the dedup row's engine then has a
		// full flush backlog to chew through.
		load.Seed = 92
		h.run(func(p *sim.Proc) { runFIO(p, dev, load) })
		if bc.prep != nil {
			bc.prep(h, s)
		}

		before := h.c.QoS().Totals()
		var res workload.FIOResult
		h.run(func(p *sim.Proc) {
			if bc.bg != nil {
				p.Go("qos-bg", func(q *sim.Proc) { bc.bg(h, s, q) })
			}
			res = runFIO(p, dev, workload.FIOConfig{
				BlockSize: 16 << 10, Span: span, Pattern: workload.RandWrite,
				DedupPct: 50, Threads: 4, IODepth: 4, Seed: 93,
				Ops: int(span / (16 << 10)),
			})
		})
		// bg admitted: ops the scheduler admitted for the background class;
		// bg throttled: its submissions that hit the class depth cap.
		var admitted, throttled int64
		if bc.cls != qos.NumClasses {
			after := h.c.QoS().Totals()
			admitted = after[bc.cls].Admitted - before[bc.cls].Admitted
			throttled = after[bc.cls].Throttled - before[bc.cls].Throttled
		}
		return []string{
			bc.label, f2(float64(res.MeanLatency()) / float64(time.Millisecond)),
			f2(float64(res.Recorder.Lat.Percentile(99)) / float64(time.Millisecond)), f1(res.Throughput()),
			fmt.Sprint(admitted), fmt.Sprint(throttled),
		}
	})
	return []Table{{
		Title:   "QoS: client 16KB randwrite latency vs active background class (static weights)",
		Columns: []string{"background", "mean ms", "p99 ms", "client MB/s", "bg admitted", "bg throttled"},
		Rows:    rows,
		Notes: []string{
			"shape target: every background class leaves client latency within ~2x of baseline",
			"background classes run at default weights (dedup 1000/cap 2, recovery 250/cap 4, scrub 100/cap 2, gc 100/cap 2)",
		},
	}}
}
