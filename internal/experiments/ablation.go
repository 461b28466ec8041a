package experiments

import (
	"fmt"
	"time"

	"dedupstore/internal/chunker"
	"dedupstore/internal/core"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
	"dedupstore/internal/workload"
)

// Ablations quantify the design choices DESIGN.md calls out: static vs
// content-defined chunking (§5 "Chunking algorithm"), strict vs
// false-positive reference counting (§4.6), and the cache manager's
// hot-object exemption (§4.3).

// AblationChunkingRow compares chunking algorithms on the cloud dataset.
type AblationChunkingRow struct {
	Algorithm  string
	DedupRatio float64
	CPUPerMB   time.Duration // modeled chunking+hash CPU per MB of data (simcost rates)
}

// AblationChunking measures the trade the paper made: fixed chunking has
// near-zero CPU cost; content-defined chunking finds slightly more
// redundancy but burns CPU the paper says Ceph cannot spare (§5: small
// random writes already use 60-80% CPU).
func AblationChunking(sc Scale) []AblationChunkingRow {
	gen := workload.NewCloudGen(workload.CloudConfig{Objects: sc.countMin(10, 6), ObjectSize: 2 << 20, Seed: 901})
	var contents [][]byte
	var total int64
	for i := 0; i < gen.Config().Objects; i++ {
		c := gen.ObjectContent(i)
		contents = append(contents, c)
		total += int64(len(c))
	}
	// CPU is charged from the simcost model rather than measured host time:
	// both chunkers fingerprint every byte, but only CDC pays the
	// rolling-hash scan over the full stream, which is what makes it ~4x
	// the CPU of static chunking on the paper's testbed. Modeled time keeps
	// the table deterministic, so it can be golden-snapshotted.
	costs := simcost.Default()
	fixed := chunker.NewFixed(32 << 10)
	cdc := chunker.NewCDC(8<<10, 32<<10, 128<<10)
	type chunking struct {
		name  string
		scans bool // pays the rolling-hash scan
		split func([]byte) []chunker.Chunk
	}
	return Runs(sc, []chunking{
		{fixed.Name(), false, func(b []byte) []chunker.Chunk { return fixed.Split(0, b) }},
		{cdc.Name(), true, func(b []byte) []chunker.Chunk { return cdc.Split(0, b) }},
	}, func(_ *Testbed, c chunking) AblationChunkingRow {
		seen := map[string]bool{}
		var unique int64
		var cpu time.Duration
		for _, data := range contents {
			if c.scans {
				cpu += costs.ChunkScan(len(data))
			}
			for _, ch := range c.split(data) {
				cpu += costs.Hash(len(ch.Data))
				id := core.FingerprintID(ch.Data)
				if !seen[id] {
					seen[id] = true
					unique += int64(len(ch.Data))
				}
			}
		}
		return AblationChunkingRow{
			Algorithm:  c.name,
			DedupRatio: 100 * float64(total-unique) / float64(total),
			CPUPerMB:   cpu / time.Duration(total/1e6+1),
		}
	})
}

// AblationChunkingTable renders the chunking ablation.
func AblationChunkingTable(rows []AblationChunkingRow) Table {
	return table("Ablation: static vs content-defined chunking (cloud dataset)",
		[]string{"algorithm", "dedup ratio %", "modeled chunk+hash CPU /MB"},
		[]string{
			"the paper picks static chunking: CDC costs ~4x the CPU on a busy OSD (§5)",
			"this synthetic dataset's duplication is block-aligned (favoring fixed chunks); CDC wins only on byte-shifted data",
		},
		rows, func(r AblationChunkingRow) []string {
			return []string{r.Algorithm, f1(r.DedupRatio), us(r.CPUPerMB)}
		})
}

// chunkPoolBytes writes streams, as objects named by oidFmt, through one
// client of a fixed-chunk store and of a CDC-mode store (16 KiB target
// chunks), one run each, and returns each chunk pool's logical bytes after a
// drain, fixed first.
func chunkPoolBytes(sc Scale, seed int64, clientName, oidFmt string, streams [][]byte) []int64 {
	return Runs(sc, []bool{false, true}, func(tb *Testbed, useCDC bool) int64 {
		h := tb.harness(seed, 4, 4)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.Rate.Enabled = false
			cfg.HitSet.HitCount = 1000
			cfg.ChunkSize = 16 << 10
			if useCDC {
				cdc := chunker.NewCDC(4<<10, 16<<10, 64<<10)
				cfg.CDC = &cdc
			}
		})
		cl := s.Client(clientName)
		h.run(func(p *sim.Proc) {
			for i, data := range streams {
				check(cl.Write(p, fmt.Sprintf(oidFmt, i), 0, data))
			}
			s.Engine().DrainAndWait(p)
		})
		return h.c.PoolStats(s.ChunkPool()).LogicalBytes
	})
}

// chunkingStores names chunkPoolBytes' two stores, in its order.
var chunkingStores = []string{"fixed chunking", "content-defined chunking"}

// AblationCDCRow compares the stores end to end on byte-shifted content.
type AblationCDCRow struct {
	Store       string
	StoredBytes int64 // chunk-pool logical bytes after dedup
	Saved       float64
}

// AblationCDCStore runs the fixed-chunk store and the CDC-mode store on the
// workload CDC exists for: objects that are byte-shifted copies of each
// other (backup streams, log rotations). Fixed chunking sees entirely new
// chunks after a shift; CDC re-finds the shared content.
func AblationCDCStore(sc Scale) []AblationCDCRow {
	base := make([]byte, sc.bytes(512<<10))
	fillSeeded(base, 905)
	variants := make([][]byte, 6)
	logical := int64(0)
	for i := range variants {
		// Each variant grows by a different, chunk-unaligned prefix length,
		// so fixed-chunk boundaries land differently in every copy.
		prefix := make([]byte, 37+i*151)
		fillSeeded(prefix, int64(9000+i))
		variants[i] = append(append([]byte(nil), prefix...), base...)
		logical += int64(len(variants[i]))
	}
	var rows []AblationCDCRow
	for i, stored := range chunkPoolBytes(sc, 906, "cl", "stream%d", variants) {
		rows = append(rows, AblationCDCRow{
			Store:       chunkingStores[i],
			StoredBytes: stored,
			Saved:       100 * (1 - float64(stored)/float64(logical)),
		})
	}
	return rows
}

// fillSeeded fills buf deterministically (local copy to avoid exporting the
// workload package's helper).
func fillSeeded(buf []byte, seed int64) {
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// AblationBackupRow is one row of the backup-generations ablation.
type AblationBackupRow struct {
	Store       string
	Generations int
	LogicalMB   float64
	StoredMB    float64
	Saved       float64
}

// AblationBackup runs the classic dedup workload — successive backup
// generations with small unaligned edits — through the fixed-chunk store
// and the CDC-mode store.
func AblationBackup(sc Scale) []AblationBackupRow {
	gen := workload.NewBackupGen(workload.BackupConfig{
		BaseSize:    sc.bytes(1 << 20),
		Generations: 5,
		ChurnPerGen: 0.03,
		Seed:        907,
	})
	gens := make([][]byte, gen.Generations())
	for i := range gens {
		gens[i] = gen.Generation(i)
	}
	var rows []AblationBackupRow
	for i, stored := range chunkPoolBytes(sc, 908, "backup", "backup.gen%d", gens) {
		rows = append(rows, AblationBackupRow{
			Store:       chunkingStores[i],
			Generations: gen.Generations(),
			LogicalMB:   float64(gen.TotalBytes()) / 1e6,
			StoredMB:    float64(stored) / 1e6,
			Saved:       100 * (1 - float64(stored)/float64(gen.TotalBytes())),
		})
	}
	return rows
}

// AblationBackupTable renders the backup-generations ablation.
func AblationBackupTable(rows []AblationBackupRow) Table {
	return table("Ablation: backup generations (5 gens, 3% unaligned churn each)",
		[]string{"store", "generations", "logical", "stored", "saved %"},
		[]string{"unaligned edits shift fixed-chunk boundaries; CDC keeps unmodified regions dedupable"},
		rows, func(r AblationBackupRow) []string {
			return []string{
				r.Store, fmt.Sprint(r.Generations),
				fmt.Sprintf("%.2f MB", r.LogicalMB), fmt.Sprintf("%.2f MB", r.StoredMB), f1(r.Saved),
			}
		})
}

// AblationCDCStoreTable renders the end-to-end chunking ablation.
func AblationCDCStoreTable(rows []AblationCDCRow) Table {
	return table("Ablation: fixed vs CDC store on byte-shifted streams (6 copies, unaligned prefixes)",
		[]string{"store", "chunk-pool bytes", "saved %"},
		[]string{"CDC's raison d'être: shifted duplicates survive re-chunking; fixed chunking sees all-new chunks"},
		rows, func(r AblationCDCRow) []string { return []string{r.Store, mb(r.StoredBytes), f1(r.Saved)} })
}

// AblationRefcountRow compares reference-counting disciplines.
type AblationRefcountRow struct {
	Mode            string
	DeleteLatency   time.Duration // mean per-object delete latency
	ChunksLeaked    int64         // zero-ref chunks left before GC
	GCSeconds       float64       // GC pass duration (FP mode)
	BytesReclaimed  int64
	FinalChunkCount int
}

// AblationRefcount measures §4.6's trade: strict refcounting locks on both
// increment and decrement but never leaks; false-positive refcounting makes
// deletes cheaper and defers reclamation to a garbage collector.
func AblationRefcount(sc Scale) []AblationRefcountRow {
	const objects = 24
	return Runs(sc, []bool{false, true}, func(tb *Testbed, fp bool) AblationRefcountRow {
		h := tb.harness(902, 4, 4)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.FalsePositiveRefs = fp
			cfg.Rate.Enabled = false
			cfg.HitSet.HitCount = 1000
			cfg.ChunkSize = 8 << 10
		})
		cl := s.Client("cl")
		gen := workload.NewFIOGen(workload.FIOConfig{BlockSize: 8 << 10, DedupPct: 50, Ops: objects * 16, Seed: 903})
		h.run(func(p *sim.Proc) {
			for i := 0; i < objects; i++ {
				buf := make([]byte, 0, 16*8<<10)
				for b := 0; b < 16; b++ {
					buf = append(buf, gen.NextBlock()...)
				}
				check(cl.Write(p, fmt.Sprintf("obj%d", i), 0, buf))
			}
			s.Engine().DrainAndWait(p)
		})
		row := AblationRefcountRow{Mode: "strict"}
		if fp {
			row.Mode = "false-positive + GC"
		}
		var delTotal time.Duration
		h.run(func(p *sim.Proc) {
			for i := 0; i < objects; i++ {
				t0 := p.Now()
				check(cl.Delete(p, fmt.Sprintf("obj%d", i)))
				delTotal += (p.Now() - t0).Duration()
			}
		})
		row.DeleteLatency = delTotal / objects
		row.ChunksLeaked = int64(len(h.c.ListObjects(s.ChunkPool())))
		if fp {
			h.run(func(p *sim.Proc) {
				t0 := p.Now()
				stats := must(s.GC(p))
				row.GCSeconds = (p.Now() - t0).Seconds()
				row.BytesReclaimed = stats.BytesReclaimed
			})
		}
		row.FinalChunkCount = len(h.c.ListObjects(s.ChunkPool()))
		return row
	})
}

// AblationRefcountTable renders the refcount ablation.
func AblationRefcountTable(rows []AblationRefcountRow) Table {
	return table("Ablation: strict vs false-positive reference counting (§4.6)",
		[]string{"mode", "mean delete latency", "chunks left pre-GC", "GC secs", "reclaimed", "final chunks"},
		[]string{"FP mode trades cheaper deletes for a GC pass; both end with zero chunks after full delete"},
		rows, func(r AblationRefcountRow) []string {
			return []string{
				r.Mode, us(r.DeleteLatency),
				fmt.Sprint(r.ChunksLeaked), f2(r.GCSeconds), mb(r.BytesReclaimed), fmt.Sprint(r.FinalChunkCount),
			}
		})
}

// AblationCacheRow compares hot-object handling.
type AblationCacheRow struct {
	Mode         string
	WriteLatency time.Duration
	FlushedBytes int64
}

// AblationCache measures §3.2's claim that skipping hot objects avoids
// wasted dedup I/O: a hot working set rewritten repeatedly with the cache
// manager on (hot objects exempt) vs off (every write re-deduplicated).
func AblationCache(sc Scale) []AblationCacheRow {
	return Runs(sc, []bool{true, false}, func(tb *Testbed, cacheOn bool) AblationCacheRow {
		h := tb.harness(904, 4, 4)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.Rate.Enabled = false
			cfg.DedupThreads = 4
			if cacheOn {
				cfg.HitSet.HitCount = 2
			} else {
				cfg.HitSet.HitCount = 1 << 30 // never hot: everything flushes
			}
		})
		cl := s.Client("cl")
		s.StartEngine()
		var total time.Duration
		ops := 0
		h.runUntil(sim.Time(10*time.Second), func(p *sim.Proc) {
			data := make([]byte, 32<<10)
			for p.Now() < sim.Time(10*time.Second) {
				for i := 0; i < 8; i++ {
					data[0] = byte(i)
					t0 := p.Now()
					check(cl.Write(p, fmt.Sprintf("hot%d", i), 0, data))
					total += (p.Now() - t0).Duration()
					ops++
				}
				p.Sleep(20 * time.Millisecond)
			}
		})
		mode := "cache off (hot objects re-deduplicated)"
		if cacheOn {
			mode = "cache on (hot objects exempt)"
		}
		return AblationCacheRow{
			Mode:         mode,
			WriteLatency: total / time.Duration(ops),
			FlushedBytes: s.Engine().Stats().BytesFlushed,
		}
	})
}

// AblationCacheTable renders the cache ablation.
func AblationCacheTable(rows []AblationCacheRow) Table {
	return table("Ablation: cache manager hot-object exemption (§3.2, §4.3)",
		[]string{"mode", "mean write latency", "background bytes flushed"},
		[]string{"exempting hot objects eliminates repeated dedup I/O for data about to be rewritten"},
		rows, func(r AblationCacheRow) []string { return []string{r.Mode, us(r.WriteLatency), mb(r.FlushedBytes)} })
}

// ablationTables runs every ablation as one experiment.
func ablationTables(sc Scale) []Table {
	return []Table{
		AblationChunkingTable(AblationChunking(sc)),
		AblationCDCStoreTable(AblationCDCStore(sc)),
		AblationBackupTable(AblationBackup(sc)),
		AblationRefcountTable(AblationRefcount(sc)),
		AblationCacheTable(AblationCache(sc)),
	}
}
