package experiments

import (
	"fmt"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/metrics"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// fig5a reproduces Figure 5-(a), the partial-write problem of inline
// deduplication: 16KB sequential writes against a 32KB-chunk inline dedup
// store force a read-modify-write per chunk, collapsing throughput versus
// the original store (and versus chunk-aligned 32KB writes).
func fig5a(sc Scale) []Table {
	span := sc.bytes(8 << 20)
	type fig5aCase struct {
		config    string
		blockSize int64
		inline    bool
	}
	cases := []fig5aCase{
		{"Original, 16KB writes", 16 << 10, false},
		{"Inline dedup, 16KB writes (partial-write RMW)", 16 << 10, true},
		{"Inline dedup, 32KB writes (chunk-aligned)", 32 << 10, true},
	}
	return []Table{{
		Title:   "Figure 5-(a): inline dedup partial-write problem (seq write)",
		Columns: []string{"config", "block", "MB/s"},
		Rows: Runs(sc, cases, func(tb *Testbed, c fig5aCase) []string {
			h := tb.harness(201, 4, 4)
			var dev *client.BlockDevice
			if c.inline {
				s := h.dedupStore(func(cfg *core.Config) {
					cfg.Mode = core.ModeInline
					cfg.ChunkSize = 32 << 10
				})
				dev = h.dedupDevice("img", span, s)
			} else {
				dev = h.rawDevice("img", span, 0, rados.ReplicatedN(2))
			}
			var mbps float64
			h.run(func(p *sim.Proc) {
				// Two sequential passes: the second pass hits chunks that inline
				// dedup already flushed, so sub-chunk writes must pre-read them.
				mbps = runFIO(p, dev, workload.FIOConfig{
					BlockSize: c.blockSize, Span: span, Pattern: workload.SeqWrite,
					Threads: 4, IODepth: 4, Seed: 51, Ops: int(2 * span / c.blockSize),
				}).Throughput()
			})
			return []string{c.config, fmtKB(c.blockSize), f1(mbps)}
		}),
		Notes: []string{"shape target: inline 16KB << original 16KB (read-modify-write per 32KB chunk)"},
	}}
}

// interference is one fig14 run. Its values feed three tables: Figure 5-(b),
// Figure 14 and the watermark-vs-static ablation.
type interference struct {
	label string
	mbps  []float64 // foreground MB/s in each second of the run
	// before/after are mean MB/s before/after the background engine starts.
	before, after float64
	// Engine runs only: rate-policy adjustments, and chunks flushed while
	// the foreground stream ran and in the idle tail after it stopped.
	rateAdjusts            int64
	flushedFg, flushedIdle int64
}

// foregroundWithEngine runs a sequential foreground writer for total
// seconds, starting the dedup engine (if s != nil) at engineStart.
func foregroundWithEngine(h *harness, s *core.Store, dev *client.BlockDevice,
	span int64, total, engineStart time.Duration, label string) interference {

	rec := metrics.NewRecorder()
	gen := workload.NewFIOGen(workload.FIOConfig{BlockSize: 512 << 10, Span: span, DedupPct: 50, Seed: 61})
	const workers = 8
	h.runUntil(sim.Time(total), func(p *sim.Proc) {
		if s != nil {
			h.eng.After(engineStart, func() { s.StartEngine() })
		}
		blocks := span / (512 << 10)
		next := int64(0)
		for w := 0; w < workers; w++ {
			p.Go("fg", func(q *sim.Proc) {
				for q.Now() < sim.Time(total) {
					off := (next % blocks) * (512 << 10)
					next++
					opStart := q.Now()
					check(dev.WriteAt(q, off, gen.NextBlock()))
					rec.Record(q.Now(), (q.Now() - opStart).Duration(), 512<<10)
				}
			})
		}
	})
	r := interference{label: label}
	pts := rec.Series.Points()
	for _, pt := range pts {
		r.mbps = append(r.mbps, pt.MBps(rec.Series.Interval()))
	}
	startSec := int(engineStart / time.Second)
	r.before = rec.Series.MeanMBps(1, startSec)
	r.after = rec.Series.MeanMBps(startSec+1, len(pts))
	return r
}

// fig14 reproduces Figure 14: the same foreground stream under (1) no
// dedup, (2) background dedup without rate control, and (3) background
// dedup with watermark rate control — rate control recovers most of the
// foreground throughput. Run 2 is also Figure 5-(b), a foreground
// sequential write stream throttled when an un-rate-limited background
// dedup engine starts. Runs 2 and 3 go on into an idle tail after the
// stream stops, where the ablation of the §4.4.2 watermark controller
// (re-expressed as a dedup-class weight policy) against a static dedup-class
// weight counts the flush work the controller deferred.
func fig14(sc Scale) []Table {
	span := sc.bytes(16 << 20)
	total := scaledDuration(sc, 24*time.Second)
	engStart := total / 3
	type fig14Case struct {
		seed  int64
		label string
		rate  func(cfg *core.Config) // nil: no deduplication at all
	}
	cases := []fig14Case{
		{203, "no deduplication (ideal)", nil},
		{204, "dedup w/o rate control", func(cfg *core.Config) { cfg.Rate.Enabled = false }},
		{205, "dedup w/ rate control", func(cfg *core.Config) {
			cfg.Rate = core.RateConfig{Enabled: true, LowIOPS: 100, HighIOPS: 500}
		}},
	}
	rs := Runs(sc, cases, func(tb *Testbed, c fig14Case) interference {
		h := tb.harness(c.seed, 4, 4)
		if c.rate == nil {
			s := h.dedupStore(func(cfg *core.Config) { cfg.HitSet.HitCount = 1000 })
			return foregroundWithEngine(h, nil, h.dedupDevice("img", span, s), span, total, engStart, c.label)
		}
		s := h.dedupStore(func(cfg *core.Config) {
			c.rate(cfg)
			cfg.DedupThreads = 32
			cfg.FlushParallel = 16
			cfg.HitSet.HitCount = 1000 // no hot exemption: everything is a target
		})
		r := foregroundWithEngine(h, s, h.dedupDevice("img", span, s), span, total, engStart, c.label)
		r.flushedFg = s.Engine().Stats().ChunksFlushed
		// Idle tail: the foreground has stopped, so the controller's
		// throttle clears and the engine catches up on whatever backlog it
		// deferred while the stream was hot.
		h.run(func(p *sim.Proc) { p.Sleep(scaledDuration(sc, 8*time.Second)) })
		st := s.Engine().Stats()
		r.rateAdjusts, r.flushedIdle = st.RateAdjusts, st.ChunksFlushed-r.flushedFg
		return r
	})
	static, controlled := rs[1], rs[2]

	fig5b := Table{
		Title:   "Figure 5-(b): foreground interference from background dedup (post-processing dedup w/o rate control)",
		Columns: []string{"second", "foreground MB/s"},
		Notes: []string{
			fmt.Sprintf("steady before engine start: %.0f MB/s; after: %.0f MB/s", static.before, static.after),
			"shape target: pronounced throughput drop once background dedup starts (paper: 600 -> 200 MB/s)",
		},
	}
	for i, v := range static.mbps {
		fig5b.Rows = append(fig5b.Rows, []string{fmt.Sprint(i), f1(v)})
	}

	// The three timelines side by side, one row per second.
	timelines := Table{
		Title:   "Figure 14: dedup rate control (foreground MB/s per second)",
		Columns: []string{"second"},
		Notes:   []string{"shape target: w/ rate control stays near ideal; w/o control drops hard (paper: ~500-600 vs ~200 MB/s)"},
	}
	seconds := 0
	for _, r := range rs {
		timelines.Columns = append(timelines.Columns, r.label)
		seconds = max(seconds, len(r.mbps))
		timelines.Notes = append(timelines.Notes, fmt.Sprintf("%s: before=%.0f MB/s after=%.0f MB/s", r.label, r.before, r.after))
	}
	for i := 0; i < seconds; i++ {
		row := []string{fmt.Sprint(i)}
		for _, r := range rs {
			if i < len(r.mbps) {
				row = append(row, f1(r.mbps[i]))
			} else {
				row = append(row, "-")
			}
		}
		timelines.Rows = append(timelines.Rows, row)
	}

	ablation := func(config string, r interference) []string {
		return []string{
			config, f1(r.before), f1(r.after), f1(retainedPct(r.before, r.after)),
			fmt.Sprint(r.rateAdjusts), fmt.Sprint(r.flushedFg), fmt.Sprint(r.flushedIdle),
		}
	}
	return []Table{fig5b, timelines, {
		Title:   "QoS: watermark weight controller vs static dedup weight (foreground MB/s)",
		Columns: []string{"config", "before MB/s", "after MB/s", "retained %", "rate adjusts", "flushed (fg)", "flushed (idle)"},
		Rows: [][]string{
			ablation("static dedup weight (controller off)", static),
			ablation("watermark controller (scaled watermarks)", controlled),
		},
		Notes: []string{"shape target: controller retains more foreground throughput than the static weight, deferring flush work into the idle tail"},
	}}
}

// retainedPct is the share of pre-engine foreground throughput a timeline
// keeps once the engine has started, in percent.
func retainedPct(before, after float64) float64 {
	if before <= 0 {
		return 0
	}
	return 100 * after / before
}
