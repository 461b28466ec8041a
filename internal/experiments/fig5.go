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

// Fig5aRow is one bar of Figure 5-(a): sequential-write throughput when the
// write block is smaller than the dedup chunk.
type Fig5aRow struct {
	Config     string
	BlockSize  int64
	Throughput float64 // MB/s
}

// Fig5a reproduces Figure 5-(a), the partial-write problem of inline
// deduplication: 16KB sequential writes against a 32KB-chunk inline dedup
// store force a read-modify-write per chunk, collapsing throughput versus
// the original store (and versus chunk-aligned 32KB writes).
func Fig5a(sc Scale) []Fig5aRow {
	span := sc.bytes(8 << 20)
	type fig5aCase struct {
		row    Fig5aRow
		inline bool
	}
	cases := []fig5aCase{
		{Fig5aRow{Config: "Original, 16KB writes", BlockSize: 16 << 10}, false},
		{Fig5aRow{Config: "Inline dedup, 16KB writes (partial-write RMW)", BlockSize: 16 << 10}, true},
		{Fig5aRow{Config: "Inline dedup, 32KB writes (chunk-aligned)", BlockSize: 32 << 10}, true},
	}
	return Runs(sc, cases, func(tb *Testbed, c fig5aCase) Fig5aRow {
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
		h.run(func(p *sim.Proc) {
			// Two sequential passes: the second pass hits chunks that inline
			// dedup already flushed, so sub-chunk writes must pre-read them.
			c.row.Throughput = runFIO(p, dev, workload.FIOConfig{
				BlockSize: c.row.BlockSize, Span: span, Pattern: workload.SeqWrite,
				Threads: 4, IODepth: 4, Seed: 51, Ops: int(2 * span / c.row.BlockSize),
			}).Throughput()
		})
		return c.row
	})
}

// Fig5aTable renders Fig5a.
func Fig5aTable(rows []Fig5aRow) Table {
	return table("Figure 5-(a): inline dedup partial-write problem (seq write)",
		[]string{"config", "block", "MB/s"},
		[]string{"shape target: inline 16KB << original 16KB (read-modify-write per 32KB chunk)"},
		rows, func(r Fig5aRow) []string { return []string{r.Config, fmtKB(r.BlockSize), f1(r.Throughput)} })
}

// TimelinePoint is one second of a foreground-throughput timeline.
type TimelinePoint struct {
	Second int
	MBps   float64
}

// InterferenceResult is one Fig14 timeline.
type InterferenceResult struct {
	Label  string
	Points []TimelinePoint
	// SteadyBefore/SteadyAfter are mean MB/s before/after the background
	// engine starts.
	SteadyBefore, SteadyAfter float64
	// Engine runs only: rate-policy adjustments, and chunks flushed while
	// the foreground stream ran and in the idle tail after it stopped.
	RateAdjusts            int64
	FlushedFg, FlushedIdle int64
}

// foregroundWithEngine runs a sequential foreground writer for total
// seconds, starting the dedup engine (if s != nil) at engineStart.
func foregroundWithEngine(h *harness, s *core.Store, dev *client.BlockDevice,
	span int64, total, engineStart time.Duration, label string) InterferenceResult {

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
	res := InterferenceResult{Label: label}
	pts := rec.Series.Points()
	for i, pt := range pts {
		res.Points = append(res.Points, TimelinePoint{Second: i, MBps: pt.MBps(rec.Series.Interval())})
	}
	startSec := int(engineStart / time.Second)
	res.SteadyBefore = rec.Series.MeanMBps(1, startSec)
	res.SteadyAfter = rec.Series.MeanMBps(startSec+1, len(pts))
	return res
}

// Fig5bTable renders Figure 5-(b) — a foreground sequential write stream
// throttled when an un-rate-limited background dedup engine starts — from
// Fig14's run without rate control.
func Fig5bTable(r InterferenceResult) Table {
	return table("Figure 5-(b): foreground interference from background dedup (post-processing dedup w/o rate control)",
		[]string{"second", "foreground MB/s"},
		[]string{
			fmt.Sprintf("steady before engine start: %.0f MB/s; after: %.0f MB/s", r.SteadyBefore, r.SteadyAfter),
			"shape target: pronounced throughput drop once background dedup starts (paper: 600 -> 200 MB/s)",
		},
		r.Points, func(pt TimelinePoint) []string { return []string{fmt.Sprint(pt.Second), f1(pt.MBps)} })
}

// Fig14 reproduces Figure 14: the same foreground stream under (1) no
// dedup, (2) background dedup without rate control, and (3) background
// dedup with watermark rate control — rate control recovers most of the
// foreground throughput. Run 2 is also Figure 5-(b). Runs 2 and 3 go on
// into an idle tail after the stream stops, where the watermark-vs-static
// ablation counts the flush work the controller deferred.
func Fig14(sc Scale) []InterferenceResult {
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
			cfg.Rate = core.RateConfig{Enabled: true, LowIOPS: 100, HighIOPS: 500, OpsPerDedupAboveHigh: 500, OpsPerDedupMid: 100}
		}},
	}
	return Runs(sc, cases, func(tb *Testbed, c fig14Case) InterferenceResult {
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
		r.FlushedFg = s.Engine().Stats().ChunksFlushed
		// Idle tail: the foreground has stopped, so the controller's
		// throttle clears and the engine catches up on whatever backlog it
		// deferred while the stream was hot.
		h.run(func(p *sim.Proc) { p.Sleep(scaledDuration(sc, 8*time.Second)) })
		st := s.Engine().Stats()
		r.RateAdjusts, r.FlushedIdle = st.RateAdjusts, st.ChunksFlushed-r.FlushedFg
		return r
	})
}

// Fig14Table renders the three rate-control timelines side by side.
func Fig14Table(rs []InterferenceResult) Table {
	t := Table{
		Title:   "Figure 14: dedup rate control (foreground MB/s per second)",
		Columns: []string{"second"},
		Notes:   []string{"shape target: w/ rate control stays near ideal; w/o control drops hard (paper: ~500-600 vs ~200 MB/s)"},
	}
	maxLen := 0
	for _, r := range rs {
		t.Columns = append(t.Columns, r.Label)
		maxLen = max(maxLen, len(r.Points))
		t.Notes = append(t.Notes, fmt.Sprintf("%s: before=%.0f MB/s after=%.0f MB/s", r.Label, r.SteadyBefore, r.SteadyAfter))
	}
	for i := 0; i < maxLen; i++ {
		row := []string{fmt.Sprint(i)}
		for _, r := range rs {
			if i < len(r.Points) {
				row = append(row, f1(r.Points[i].MBps))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RateAblationTable renders the §4.4.2 watermark controller (re-expressed
// as a dedup-class weight policy) against a static dedup-class weight, from
// Fig14's two engine runs.
func RateAblationTable(static, controlled InterferenceResult) Table {
	static.Label, controlled.Label = "static dedup weight (controller off)", "watermark controller (scaled watermarks)"
	return table("QoS: watermark weight controller vs static dedup weight (foreground MB/s)",
		[]string{"config", "before MB/s", "after MB/s", "retained %", "rate adjusts", "flushed (fg)", "flushed (idle)"},
		[]string{"shape target: controller retains more foreground throughput than the static weight, deferring flush work into the idle tail"},
		[]InterferenceResult{static, controlled}, func(r InterferenceResult) []string {
			return []string{
				r.Label, f1(r.SteadyBefore), f1(r.SteadyAfter), f1(retainedPct(r)),
				fmt.Sprint(r.RateAdjusts), fmt.Sprint(r.FlushedFg), fmt.Sprint(r.FlushedIdle),
			}
		})
}

// retainedPct is the share of pre-engine foreground throughput a timeline
// keeps once the engine has started, in percent.
func retainedPct(r InterferenceResult) float64 {
	if r.SteadyBefore <= 0 {
		return 0
	}
	return 100 * r.SteadyAfter / r.SteadyBefore
}

// fig14Tables runs Fig14 once and renders the three tables its runs feed:
// Figure 5-(b), Figure 14 and the watermark-vs-static ablation.
func fig14Tables(sc Scale) []Table {
	rs := Fig14(sc)
	return []Table{Fig5bTable(rs[1]), Fig14Table(rs), RateAblationTable(rs[1], rs[2])}
}
