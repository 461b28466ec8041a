package experiments

import (
	"fmt"

	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// Fig3Row is one bar pair of Figure 3: local vs global dedup ratio for a
// workload on the 16-OSD testbed.
type Fig3Row struct {
	Workload    string
	Local       float64
	Global      float64
	PaperLocal  float64
	PaperGlobal float64
}

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

// Fig3 reproduces Figure 3: "Deduplication ratio comparison between global
// deduplication and local deduplication" across FIO, SPEC SFS DB, and the
// private-cloud dataset, on 4 nodes × 4 OSDs.
func Fig3(sc Scale) []Fig3Row {
	type fig3Case struct {
		row  Fig3Row // workload and paper numbers
		seed int64
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
		{Fig3Row{Workload: "FIO dedup 50%", PaperLocal: 4.20, PaperGlobal: 50.01}, 101, fio(50)},
		{Fig3Row{Workload: "FIO dedup 80%", PaperLocal: 12.98, PaperGlobal: 80.01}, 101, fio(80)},
		{Fig3Row{Workload: "SFS DB (LD1)", PaperLocal: 8.96, PaperGlobal: 35.96}, 102, sfs(1)},
		{Fig3Row{Workload: "SFS DB (LD3)", PaperLocal: 32.53, PaperGlobal: 80.60}, 102, sfs(3)},
		{Fig3Row{Workload: "SFS DB (LD10)", PaperLocal: 50.02, PaperGlobal: 92.73}, 102, sfs(10)},
		{Fig3Row{Workload: "SKT Private Cloud", PaperLocal: 21.53, PaperGlobal: 44.80}, 103, cloud},
	}
	return Runs(sc, cases, func(tb *Testbed, c fig3Case) Fig3Row {
		h := tb.harness(c.seed, 4, 4)
		pool, chunk := c.load(h)
		c.row.Local, c.row.Global = dedupRatios(h, pool, chunk)
		return c.row
	})
}

// Fig3Table renders Fig3 results.
func Fig3Table(rows []Fig3Row) Table {
	return table("Figure 3: local vs global deduplication ratio (%)",
		[]string{"workload", "local", "global", "paper-local", "paper-global"},
		[]string{"shape target: global >> local everywhere; gap ~2-4x for SFS/cloud, ~12x for FIO on 16 OSDs"},
		rows, func(r Fig3Row) []string {
			return []string{r.Workload, f1(r.Local), f1(r.Global), f1(r.PaperLocal), f1(r.PaperGlobal)}
		})
}

// Table1Row is one column of Table 1: local vs global ratio as the cluster
// grows.
type Table1Row struct {
	OSDs        int
	Local       float64
	Global      float64
	PaperLocal  float64
	PaperGlobal float64
}

// Table1 reproduces Table 1: FIO dedup-50% content analyzed under local and
// global dedup at 4, 8, 12, 16 OSDs — local dedup's ratio collapses as the
// cluster scales out, global stays at the content's 50%.
func Table1(sc Scale) []Table1Row {
	paperLocal := map[int]float64{4: 15.5, 8: 8.1, 12: 5.5, 16: 4.1}
	return Runs(sc, []int{4, 8, 12, 16}, func(tb *Testbed, osds int) Table1Row {
		h := tb.harness(111, 4, osds/4)
		local, global := dedupRatios(h, fioDataset(sc, h, 50, 41), 8<<10)
		return Table1Row{osds, local, global, paperLocal[osds], 50.0}
	})
}

// Table1Table renders Table1 results.
func Table1Table(rows []Table1Row) Table {
	return table("Table 1: dedup ratio (%) vs cluster size, FIO dedup=50%",
		[]string{"OSDs", "local", "global", "paper-local", "paper-global"},
		[]string{"shape target: local ratio shrinks ~1/OSDs; global stays ~50%"},
		rows, func(r Table1Row) []string {
			return []string{fmt.Sprint(r.OSDs), f1(r.Local), f1(r.Global), f1(r.PaperLocal), f1(r.PaperGlobal)}
		})
}
