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
// controller against a static dedup-class weight reads Fig14's runs
// (RateAblationTable).

// QoSMatrixRow is one row of the interference matrix: client small-write
// latency with one background class active.
type QoSMatrixRow struct {
	Background  string
	MeanMs      float64
	P99Ms       float64
	MBps        float64
	BGAdmitted  int64 // ops the scheduler admitted for the background class
	BGThrottled int64 // submissions that hit the class depth cap
}

// QoSMatrix measures client randwrite latency against a deduplicated
// dataset while, in turn, nothing / dedup flush / recovery / scrub / GC runs
// in the background. Rate control is off so the matrix isolates the
// scheduler's static weights and depth caps.
func QoSMatrix(sc Scale) []QoSMatrixRow {
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
					if err := h.c.FailOSD(id); err != nil {
						panic(err)
					}
					if _, err := h.c.ReplaceOSD(id); err != nil {
						panic(err)
					}
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
					if _, err := s.GC(p); err != nil {
						panic(err)
					}
				}
			},
		},
	}

	var rows []QoSMatrixRow
	for _, bc := range cases {
		h := sc.newHarness(901, 4, 4)
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
			if res := workload.RunFIO(p, dev, load); res.Errors > 0 {
				panic(fmt.Sprintf("qos load: %d errors", res.Errors))
			}
			s.Engine().DrainAndWait(p)
		})
		// Re-dirty the dataset (no drain) in EVERY case so all rows measure
		// against the same store state; the dedup row's engine then has a
		// full flush backlog to chew through.
		load.Seed = 92
		h.run(func(p *sim.Proc) {
			if res := workload.RunFIO(p, dev, load); res.Errors > 0 {
				panic(fmt.Sprintf("qos re-dirty: %d errors", res.Errors))
			}
		})
		if bc.prep != nil {
			bc.prep(h, s)
		}

		before := h.c.QoS().Totals()
		var res workload.FIOResult
		h.run(func(p *sim.Proc) {
			if bc.bg != nil {
				bg := bc.bg
				p.Go("qos-bg", func(q *sim.Proc) { bg(h, s, q) })
			}
			res = workload.RunFIO(p, dev, workload.FIOConfig{
				BlockSize: 16 << 10, Span: span, Pattern: workload.RandWrite,
				DedupPct: 50, Threads: 4, IODepth: 4, Seed: 93,
				Ops: int(span / (16 << 10)),
			})
			if res.Errors > 0 {
				panic(fmt.Sprintf("qos measured phase (%s): %d errors", bc.label, res.Errors))
			}
		})
		row := QoSMatrixRow{
			Background: bc.label,
			MeanMs:     float64(res.MeanLatency()) / float64(time.Millisecond),
			P99Ms:      float64(res.Recorder.Lat.Percentile(99)) / float64(time.Millisecond),
			MBps:       res.Throughput(),
		}
		if bc.cls != qos.NumClasses {
			after := h.c.QoS().Totals()
			row.BGAdmitted = after[bc.cls].Admitted - before[bc.cls].Admitted
			row.BGThrottled = after[bc.cls].Throttled - before[bc.cls].Throttled
		}
		rows = append(rows, row)
	}
	return rows
}

// QoSMatrixTable renders the interference matrix.
func QoSMatrixTable(rows []QoSMatrixRow) Table {
	t := Table{
		Title:   "QoS: client 16KB randwrite latency vs active background class (static weights)",
		Columns: []string{"background", "mean ms", "p99 ms", "client MB/s", "bg admitted", "bg throttled"},
		Notes: []string{
			"shape target: every background class leaves client latency within ~2x of baseline",
			"background classes run at default weights (dedup 1000/cap 2, recovery 250/cap 4, scrub 100/cap 2, gc 100/cap 2)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Background, f2(r.MeanMs), f2(r.P99Ms), f1(r.MBps),
			fmt.Sprint(r.BGAdmitted), fmt.Sprint(r.BGThrottled),
		})
	}
	return t
}

// QoSResult runs the interference matrix and packages it as a
// machine-readable Result.
func QoSResult(sc Scale) Result {
	return Result{Name: "qos", Tables: []Table{QoSMatrixTable(QoSMatrix(sc))}}
}
