package experiments

import (
	"fmt"

	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// fioDataset writes 5 MB (paper: 5GB) of sequential 8 KiB FIO blocks at
// dedupPct into a raw replicated pool and returns the pool.
func fioDataset(sc Scale, h *harness, dedupPct float64, seed int64) *rados.Pool {
	span := sc.bytes(5 << 20)
	dev := h.rawDevice("fio", span, 64<<10, rados.ReplicatedN(2))
	h.run(func(p *sim.Proc) {
		runFIO(p, dev, workload.FIOConfig{
			BlockSize: 8 << 10, Span: span, Pattern: workload.SeqWrite,
			DedupPct: dedupPct, Threads: 4, IODepth: 4, Seed: seed,
		})
	})
	pool, _ := h.c.LookupPool("pool.fio")
	return pool
}

// dedupRatios is the local and global dedup ratio of pool's data at chunk
// bytes.
func dedupRatios(h *harness, pool *rados.Pool, chunk int64) (local, global float64) {
	return core.LocalDedupAnalysis(h.c, pool, chunk).Ratio(), core.GlobalDedupAnalysis(h.c, pool, chunk).Ratio()
}

// fig3 reproduces Figure 3: "Deduplication ratio comparison between global
// deduplication and local deduplication" across FIO, SPEC SFS DB, and the
// private-cloud dataset, on 4 nodes × 4 OSDs: one bar pair per workload.
func fig3(sc Scale) []Table {
	type fig3Case struct {
		workload string
		paper    [2]float64 // local, global
		seed     int64
		// load writes the data set and returns its pool and the chunk
		// size the analysis uses.
		load func(h *harness) (*rados.Pool, int64)
	}
	fio := func(pct float64) func(h *harness) (*rados.Pool, int64) {
		return func(h *harness) (*rados.Pool, int64) { return fioDataset(sc, h, pct, 11), 8 << 10 }
	}
	sfs := func(loads int) func(h *harness) (*rados.Pool, int64) {
		return func(h *harness) (*rados.Pool, int64) {
			perLoad := sc.bytes(2400 << 10) // paper: 24GB total at metric 10
			dev := h.rawDevice("sfs", int64(loads)*perLoad, 64<<10, rados.ReplicatedN(2))
			cfg := workload.SFSConfig{Loads: loads, BytesPerLoad: perLoad, PageSize: 8 << 10, Seed: 21}
			h.run(func(p *sim.Proc) { check(workload.BuildSFSDataset(p, dev, cfg)) })
			pool, _ := h.c.LookupPool("pool.sfs")
			return pool, 8 << 10
		}
	}
	cloud := func(h *harness) (*rados.Pool, int64) {
		pool, gw := h.rawPool("cloud", rados.ReplicatedN(2))
		gen := workload.NewCloudGen(workload.CloudConfig{Objects: sc.countMin(12, 6), ObjectSize: 2 << 20, Seed: 31})
		h.run(func(p *sim.Proc) {
			for i := 0; i < gen.Config().Objects; i++ {
				check(gw.WriteFull(p, pool, gen.ObjectName(i), gen.ObjectContent(i)))
			}
		})
		return pool, 32 << 10
	}
	cases := []fig3Case{
		{"FIO dedup 50%", [2]float64{4.20, 50.01}, 101, fio(50)},
		{"FIO dedup 80%", [2]float64{12.98, 80.01}, 101, fio(80)},
		{"SFS DB (LD1)", [2]float64{8.96, 35.96}, 102, sfs(1)},
		{"SFS DB (LD3)", [2]float64{32.53, 80.60}, 102, sfs(3)},
		{"SFS DB (LD10)", [2]float64{50.02, 92.73}, 102, sfs(10)},
		{"SKT Private Cloud", [2]float64{21.53, 44.80}, 103, cloud},
	}
	return []Table{{
		Title:   "Figure 3: local vs global deduplication ratio (%)",
		Columns: []string{"workload", "local", "global", "paper-local", "paper-global"},
		Rows: Runs(sc, cases, func(tb *Testbed, c fig3Case) []string {
			h := tb.harness(c.seed, 4, 4)
			pool, chunk := c.load(h)
			local, global := dedupRatios(h, pool, chunk)
			return []string{c.workload, f1(local), f1(global), f1(c.paper[0]), f1(c.paper[1])}
		}),
		Notes: []string{"shape target: global >> local everywhere; gap ~2-4x for SFS/cloud, ~12x for FIO on 16 OSDs"},
	}}
}

// table1 reproduces Table 1: FIO dedup-50% content analyzed under local and
// global dedup at 4, 8, 12, 16 OSDs — local dedup's ratio collapses as the
// cluster scales out, global stays at the content's 50%.
func table1(sc Scale) []Table {
	paperLocal := map[int]float64{4: 15.5, 8: 8.1, 12: 5.5, 16: 4.1}
	return []Table{{
		Title:   "Table 1: dedup ratio (%) vs cluster size, FIO dedup=50%",
		Columns: []string{"OSDs", "local", "global", "paper-local", "paper-global"},
		Rows: Runs(sc, []int{4, 8, 12, 16}, func(tb *Testbed, osds int) []string {
			h := tb.harness(111, 4, osds/4)
			local, global := dedupRatios(h, fioDataset(sc, h, 50, 41), 8<<10)
			return []string{fmt.Sprint(osds), f1(local), f1(global), f1(paperLocal[osds]), f1(50.0)}
		}),
		Notes: []string{"shape target: local ratio shrinks ~1/OSDs; global stays ~50%"},
	}}
}
