package experiments

import (
	"encoding/binary"
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

// ablationChunking measures the trade the paper made: fixed chunking has
// near-zero CPU cost; content-defined chunking finds slightly more
// redundancy but burns CPU the paper says Ceph cannot spare (§5: small
// random writes already use 60-80% CPU). The CPU column is the modeled
// chunking+hash CPU per MB of data, at simcost rates.
func ablationChunking(sc Scale) Table {
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
	rows := Runs(sc, []chunking{
		{fixed.Name(), false, func(b []byte) []chunker.Chunk { return fixed.Split(0, b) }},
		{cdc.Name(), true, func(b []byte) []chunker.Chunk { return cdc.Split(0, b) }},
	}, func(_ *Testbed, c chunking) []string {
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
		return []string{c.name, f1(100 * float64(total-unique) / float64(total)), us(cpu / time.Duration(total/1e6+1))}
	})
	return Table{
		Title:   "Ablation: static vs content-defined chunking (cloud dataset)",
		Columns: []string{"algorithm", "dedup ratio %", "modeled chunk+hash CPU /MB"},
		Rows:    rows,
		Notes: []string{
			"the paper picks static chunking: CDC costs ~4x the CPU on a busy OSD (§5)",
			"this synthetic dataset's duplication is block-aligned (favoring fixed chunks); CDC wins only on byte-shifted data",
		},
	}
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

// ablationCDCStore runs the fixed-chunk store and the CDC-mode store on the
// workload CDC exists for: objects that are byte-shifted copies of each
// other (backup streams, log rotations). Fixed chunking sees entirely new
// chunks after a shift; CDC re-finds the shared content.
func ablationCDCStore(sc Scale) Table {
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
	t := Table{
		Title:   "Ablation: fixed vs CDC store on byte-shifted streams (6 copies, unaligned prefixes)",
		Columns: []string{"store", "chunk-pool bytes", "saved %"},
		Notes:   []string{"CDC's raison d'être: shifted duplicates survive re-chunking; fixed chunking sees all-new chunks"},
	}
	for i, stored := range chunkPoolBytes(sc, 906, "cl", "stream%d", variants) {
		t.Rows = append(t.Rows, []string{chunkingStores[i], mb(stored), f1(100 * (1 - float64(stored)/float64(logical)))})
	}
	return t
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

// ablationBackup runs the classic dedup workload — successive backup
// generations with small unaligned edits — through the fixed-chunk store
// and the CDC-mode store.
func ablationBackup(sc Scale) Table {
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
	t := Table{
		Title:   "Ablation: backup generations (5 gens, 3% unaligned churn each)",
		Columns: []string{"store", "generations", "logical", "stored", "saved %"},
		Notes:   []string{"unaligned edits shift fixed-chunk boundaries; CDC keeps unmodified regions dedupable"},
	}
	for i, stored := range chunkPoolBytes(sc, 908, "backup", "backup.gen%d", gens) {
		t.Rows = append(t.Rows, []string{
			chunkingStores[i], fmt.Sprint(gen.Generations()),
			fmt.Sprintf("%.2f MB", float64(gen.TotalBytes())/1e6), fmt.Sprintf("%.2f MB", float64(stored)/1e6),
			f1(100 * (1 - float64(stored)/float64(gen.TotalBytes()))),
		})
	}
	return t
}

// ablationRefcount measures §4.6's trade: strict refcounting locks on both
// increment and decrement but never leaks; false-positive refcounting makes
// deletes cheaper and defers reclamation to a garbage collector. Each row
// reports the mean per-object delete latency, the zero-reference chunks left
// before GC, and the GC pass (false-positive mode only).
func ablationRefcount(sc Scale) Table {
	const objects = 24
	rows := Runs(sc, []bool{false, true}, func(tb *Testbed, fp bool) []string {
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
		mode := "strict"
		if fp {
			mode = "false-positive + GC"
		}
		var delTotal time.Duration
		h.run(func(p *sim.Proc) {
			for i := 0; i < objects; i++ {
				t0 := p.Now()
				check(cl.Delete(p, fmt.Sprintf("obj%d", i)))
				delTotal += (p.Now() - t0).Duration()
			}
		})
		leaked := len(h.c.ListObjects(s.ChunkPool()))
		var gcSecs float64
		var reclaimed int64
		if fp {
			h.run(func(p *sim.Proc) {
				t0 := p.Now()
				stats := must(s.GC(p))
				gcSecs = (p.Now() - t0).Seconds()
				reclaimed = stats.BytesReclaimed
			})
		}
		return []string{
			mode, us(delTotal / objects),
			fmt.Sprint(leaked), f2(gcSecs), mb(reclaimed), fmt.Sprint(len(h.c.ListObjects(s.ChunkPool()))),
		}
	})
	return Table{
		Title:   "Ablation: strict vs false-positive reference counting (§4.6)",
		Columns: []string{"mode", "mean delete latency", "chunks left pre-GC", "GC secs", "reclaimed", "final chunks"},
		Rows:    rows,
		Notes:   []string{"FP mode trades cheaper deletes for a GC pass; both end with zero chunks after full delete"},
	}
}

// ablationCache measures §3.2's claim that skipping hot objects avoids
// wasted dedup I/O: a hot working set rewritten repeatedly with the cache
// manager on (hot objects exempt) vs off (every write re-deduplicated).
func ablationCache(sc Scale) Table {
	rows := Runs(sc, []bool{true, false}, func(tb *Testbed, cacheOn bool) []string {
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
			for round := uint32(0); p.Now() < sim.Time(10*time.Second); round++ {
				// Each round writes new bytes, so a flush of a rewritten
				// object is real chunk-pool I/O, not a no-op.
				binary.LittleEndian.PutUint32(data[1:], round)
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
		return []string{mode, us(total / time.Duration(ops)), mb(s.Engine().Stats().BytesFlushed)}
	})
	return Table{
		Title:   "Ablation: cache manager hot-object exemption (§3.2, §4.3)",
		Columns: []string{"mode", "mean write latency", "background bytes flushed"},
		Rows:    rows,
		Notes:   []string{"exempting hot objects cuts the bytes flushed about 10x by not deduplicating data about to be rewritten; mean write latency does not move, since flushes run behind the writes"},
	}
}

// ablationTables runs every ablation as one experiment.
func ablationTables(sc Scale) []Table {
	return []Table{ablationChunking(sc), ablationCDCStore(sc), ablationBackup(sc), ablationRefcount(sc), ablationCache(sc)}
}
