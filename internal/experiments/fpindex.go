package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dedupstore/internal/core"
	"dedupstore/internal/fpindex"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// The fpindex experiment characterizes the per-OSD log-structured
// fingerprint index (internal/fpindex): a sweep of index size × block-cache
// capacity measuring chunk-existence lookup latency, and a dedup-flush
// throughput comparison against the flat in-memory map. The shape to
// reproduce: once the index outgrows the block cache, positive lookups fall
// off a cliff (every probe pays a charged SSTable block read), while
// negative lookups stay near-flat because the bloom filters reject them
// before any I/O.

// fpIndexSweepConfig builds the index tuning used by the latency sweep:
// a small memtable so nearly all fingerprints live in SSTables, 4 KiB
// blocks, and the swept cache capacity.
func fpIndexSweepConfig(cacheBytes int) fpindex.Config {
	return fpindex.Config{
		Enabled:       true,
		MemtableBytes: 4 << 10,
		BlockBytes:    4 << 10,
		CacheBytes:    cacheBytes,
		BloomFP:       0.01,
		LevelFanout:   4,
	}
}

// FPIndexLatencyRow is one (seed, index size, cache capacity) cell of the
// lookup-latency sweep.
type FPIndexLatencyRow struct {
	Seed        int64
	Entries     int   // fingerprints inserted (pre-replication)
	CacheKiB    int64 // per-OSD block-cache capacity
	IndexKiB    int64 // resulting per-OSD SSTable bytes (avg)
	HitP50Us    float64
	HitP99Us    float64
	NegP50Us    float64
	NegP99Us    float64
	CacheHitPct float64 // block-cache hit ratio during the measured phase
	ProbeKops   float64 // sustained lookups per second (hits + negatives)
	ObsFPPct    float64 // bloom observed false-positive rate, measured phase
	EstFPPct    float64 // bloom design false-positive rate (EstimatedFP)
}

// fpKeys derives a deterministic fingerprint population for a seed: 36-byte
// chunk-style OIDs with uniformly spread hex digests (so SSTable blocks and
// PGs are evenly loaded), plus an equal population of absent fingerprints
// guaranteed to collide with nothing inserted.
func fpKeys(seed int64, n int) (present, absent []string) {
	rng := rand.New(rand.NewSource(seed))
	present = make([]string, n)
	absent = make([]string, n)
	for i := range present {
		present[i] = fmt.Sprintf("chk.%016x%015x0", rng.Uint64(), rng.Uint64()>>4)
	}
	for i := range absent {
		absent[i] = fmt.Sprintf("chk.%016x%015x1", rng.Uint64(), rng.Uint64()>>4)
	}
	return present, absent
}

// percentileUs sorts the samples and returns the p-th percentile in
// microseconds (ceil rank, matching metrics.Histogram).
func percentileUs(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(float64(len(s))*p/100+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return float64(s[rank]) / float64(time.Microsecond)
}

// FPIndexLatencySweep measures chunk-existence lookup latency across index
// sizes and cache capacities, two seeds each. Per cell: load the
// fingerprints through the normal replicated write path, let compaction
// drain, warm the cache with one unmeasured pass, then time every present
// and absent probe individually at the acting primary.
func FPIndexLatencySweep(sc Scale) []FPIndexLatencyRow {
	sizes := []int{sc.countMin(1000, 64), sc.countMin(4000, 256), sc.countMin(16000, 1024)}
	caches := []int{32 << 10, 1 << 20}
	seeds := []int64{1301, 1302}

	var rows []FPIndexLatencyRow
	for _, seed := range seeds {
		for _, cache := range caches {
			for _, entries := range sizes {
				h := sc.newHarness(seed, 2, 2)
				pool, err := h.c.CreatePool(rados.PoolConfig{
					Name: "chunks", PGNum: 64, Redundancy: rados.ReplicatedN(2),
				})
				if err != nil {
					panic(err)
				}
				if err := h.c.EnableFPIndex(pool, fpIndexSweepConfig(cache)); err != nil {
					panic(err)
				}
				gw := h.c.NewGateway("fp-load")
				present, absent := fpKeys(seed, entries)

				h.run(func(p *sim.Proc) {
					for _, oid := range present {
						if err := gw.WriteFull(p, pool, oid, make([]byte, 64)); err != nil {
							panic(fmt.Sprintf("fpindex load %s: %v", oid, err))
						}
					}
					// Let the background compactors drain every due merge so
					// the measured phase sees a quiescent table layout.
					p.Sleep(2 * time.Second)
				})

				probeOrder := rng(seed).Perm(len(present))
				var hits, negs []time.Duration
				var elapsed time.Duration
				before := h.c.FPIndexStats()
				h.run(func(p *sim.Proc) {
					// Warm pass (unmeasured): fills the cache when the index
					// fits; with a smaller cache the LRU thrashes either way.
					for _, i := range probeOrder {
						if _, err := h.c.FPLookup(p, present[i]); err != nil {
							panic(err)
						}
					}
					t0 := p.Now()
					for _, i := range probeOrder {
						s := p.Now()
						found, err := h.c.FPLookup(p, present[i])
						if err != nil {
							panic(err)
						}
						if !found {
							panic(fmt.Sprintf("fpindex: present fingerprint %q not found", present[i]))
						}
						hits = append(hits, (p.Now() - s).Duration())
					}
					for _, oid := range absent {
						s := p.Now()
						found, err := h.c.FPLookup(p, oid)
						if err != nil {
							panic(err)
						}
						if found {
							panic(fmt.Sprintf("fpindex: absent fingerprint %q found", oid))
						}
						negs = append(negs, (p.Now() - s).Duration())
					}
					elapsed = (p.Now() - t0).Duration()
				})
				if err := h.c.FPIndexVerify(); err != nil {
					panic(err)
				}
				after := h.c.FPIndexStats()

				nOSD := len(h.c.OSDs())
				dCacheHits := after.CacheHits - before.CacheHits
				dCacheMiss := after.CacheMisses - before.CacheMisses
				dFP := after.BloomFalsePos - before.BloomFalsePos
				dAbsent := after.AbsentProbes - before.AbsentProbes
				dEst := after.EstFPSum - before.EstFPSum
				row := FPIndexLatencyRow{
					Seed:     seed,
					Entries:  entries,
					CacheKiB: int64(cache >> 10),
					IndexKiB: after.TableBytes / int64(nOSD) >> 10,
					HitP50Us: percentileUs(hits, 50),
					HitP99Us: percentileUs(hits, 99),
					NegP50Us: percentileUs(negs, 50),
					NegP99Us: percentileUs(negs, 99),
					ProbeKops: float64(len(hits)+len(negs)) /
						elapsed.Seconds() / 1000,
					EstFPPct: 100 * dEst / float64(max64(dAbsent, 1)),
					ObsFPPct: 100 * float64(dFP) / float64(max64(dAbsent, 1)),
				}
				if tot := dCacheHits + dCacheMiss; tot > 0 {
					row.CacheHitPct = 100 * float64(dCacheHits) / float64(tot)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5f3c9)) }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// FPIndexLatencyTable renders the lookup-latency sweep.
func FPIndexLatencyTable(rows []FPIndexLatencyRow) Table {
	t := Table{
		Title:   "fpindex: chunk-existence lookup latency vs index size x block cache (per-OSD LSM index)",
		Columns: []string{"seed", "entries", "cache KiB", "index KiB/osd", "hit p50 us", "hit p99 us", "neg p50 us", "neg p99 us", "cache hit %", "probe kops/s", "obs FP %", "est FP %"},
		Notes: []string{
			"shape target: hit p50 rises monotonically with index size once SSTables exceed the cache (the cliff); cached configs stay flat",
			"shape target: negative lookups stay near-flat across index sizes - bloom filters reject them before any block I/O",
			"shape target: observed bloom false-positive rate within ~2x of the filters' design rate (est FP)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Seed), fmt.Sprint(r.Entries), fmt.Sprint(r.CacheKiB),
			fmt.Sprint(r.IndexKiB), f1(r.HitP50Us), f1(r.HitP99Us),
			f1(r.NegP50Us), f1(r.NegP99Us), f1(r.CacheHitPct),
			f1(r.ProbeKops), f2(r.ObsFPPct), f2(r.EstFPPct),
		})
	}
	return t
}

// FPIndexFlushRow is one configuration of the dedup-flush throughput
// comparison.
type FPIndexFlushRow struct {
	Config        string
	Seed          int64
	ChunksFlushed int64
	ElapsedMs     float64
	FlushMBps     float64
	IndexLookups  int64
	CacheHitPct   float64
	IndexWriteKiB int64
}

// FPIndexFlushSweep runs the paper's post-process dedup pipeline with the
// fingerprint index off (flat map), on with a generous cache, and on with a
// starved cache, and measures background flush throughput: the index's
// existence probes and WAL/SSTable writes ride the same dedup-class QoS
// budget as the flush I/O itself.
func FPIndexFlushSweep(sc Scale) []FPIndexFlushRow {
	span := sc.bytes(8 << 20)
	cases := []struct {
		label string
		cfg   fpindex.Config
	}{
		{label: "flat map (index off)"},
		{label: "lsm index, 1 MiB cache", cfg: fpIndexSweepConfig(1 << 20)},
		{label: "lsm index, 4 KiB cache", cfg: fpIndexSweepConfig(4 << 10)},
	}
	var rows []FPIndexFlushRow
	for _, seed := range []int64{1311, 1312} {
		for _, bc := range cases {
			h := sc.newHarness(seed, 2, 2)
			s := h.dedupStore(func(cfg *core.Config) {
				cfg.ChunkSize = 4096
				cfg.Rate.Enabled = false
				cfg.HitSet.HitCount = 1000
				cfg.DedupThreads = 4
				cfg.FPIndex = bc.cfg
			})
			dev := h.dedupDevice("img", span, s)
			h.run(func(p *sim.Proc) {
				res := workload.RunFIO(p, dev, workload.FIOConfig{
					BlockSize: 64 << 10, Span: span, Pattern: workload.SeqWrite,
					DedupPct: 80, Threads: 4, IODepth: 4, Seed: seed,
				})
				if res.Errors > 0 {
					panic(fmt.Sprintf("fpindex flush load: %d errors", res.Errors))
				}
			})
			before := h.c.FPIndexStats()
			var elapsed time.Duration
			h.run(func(p *sim.Proc) {
				t0 := p.Now()
				s.StartEngine()
				s.Engine().DrainAndWait(p)
				elapsed = (p.Now() - t0).Duration()
			})
			if err := h.c.FPIndexVerify(); err != nil {
				panic(err)
			}
			after := h.c.FPIndexStats()
			st := s.Engine().Stats()
			row := FPIndexFlushRow{
				Config:        bc.label,
				Seed:          seed,
				ChunksFlushed: st.ChunksFlushed,
				ElapsedMs:     float64(elapsed) / float64(time.Millisecond),
				FlushMBps: float64(st.ChunksFlushed*4096) /
					(1 << 20) / elapsed.Seconds(),
				IndexLookups:  after.Lookups - before.Lookups,
				IndexWriteKiB: (after.WriteBytes - before.WriteBytes) >> 10,
			}
			if tot := (after.CacheHits - before.CacheHits) + (after.CacheMisses - before.CacheMisses); tot > 0 {
				row.CacheHitPct = 100 * float64(after.CacheHits-before.CacheHits) / float64(tot)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FPIndexFlushTable renders the flush-throughput comparison.
func FPIndexFlushTable(rows []FPIndexFlushRow) Table {
	t := Table{
		Title:   "fpindex: background dedup flush throughput - flat map vs LSM fingerprint index",
		Columns: []string{"config", "seed", "chunks flushed", "elapsed ms", "flush MB/s", "index lookups", "cache hit %", "index write KiB"},
		Notes: []string{
			"shape target: flush bandwidth holds within ~5% of the flat map - index WAL/SSTable writes mostly overlap the replicated chunk writes on the dedup QoS budget; cache starvation shows up as a lower block-cache hit ratio and the larger share of the loss",
			"flat-map rows show zero index traffic: the Config switch leaves the default path untouched",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Config, fmt.Sprint(r.Seed), fmt.Sprint(r.ChunksFlushed),
			f1(r.ElapsedMs), f1(r.FlushMBps), fmt.Sprint(r.IndexLookups),
			f1(r.CacheHitPct), fmt.Sprint(r.IndexWriteKiB),
		})
	}
	return t
}

// FPIndexResult runs both fpindex tables as one golden-gated experiment.
func FPIndexResult(sc Scale) Result {
	return Result{Name: "fpindex", Tables: []Table{
		FPIndexLatencyTable(FPIndexLatencySweep(sc)),
		FPIndexFlushTable(FPIndexFlushSweep(sc)),
	}}
}
