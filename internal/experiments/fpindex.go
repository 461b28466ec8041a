package experiments

import (
	"fmt"
	"math/rand"
	"slices"
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
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := min(max(int(float64(len(s))*p/100+0.9999999)-1, 0), len(s)-1)
	return float64(s[rank]) / float64(time.Microsecond)
}

// cacheHitPct is the block-cache hit ratio between two index snapshots,
// in percent (0 without lookups).
func cacheHitPct(before, after fpindex.Stats) float64 {
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
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

	type latencyCase struct {
		seed    int64
		cache   int
		entries int
	}
	var cases []latencyCase
	for _, seed := range seeds {
		for _, cache := range caches {
			for _, entries := range sizes {
				cases = append(cases, latencyCase{seed, cache, entries})
			}
		}
	}
	return Runs(sc, cases, func(tb *Testbed, c latencyCase) FPIndexLatencyRow {
		h := tb.harness(c.seed, 2, 2)
		pool := must(h.c.CreatePool(rados.PoolConfig{Name: "chunks", PGNum: 64, Redundancy: rados.ReplicatedN(2)}))
		check(h.c.EnableFPIndex(pool, fpIndexSweepConfig(c.cache)))
		gw := h.c.NewGateway("fp-load")
		present, absent := fpKeys(c.seed, c.entries)

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

		probeOrder := rand.New(rand.NewSource(c.seed ^ 0x5f3c9)).Perm(len(present))
		var hits, negs []time.Duration
		var elapsed time.Duration
		before := h.c.FPIndexStats()
		h.run(func(p *sim.Proc) {
			// Warm pass (unmeasured): fills the cache when the index
			// fits; with a smaller cache the LRU thrashes either way.
			for _, i := range probeOrder {
				must(h.c.FPLookup(p, present[i]))
			}
			probe := func(oid string, inserted bool) time.Duration {
				s := p.Now()
				if found := must(h.c.FPLookup(p, oid)); found != inserted {
					panic(fmt.Sprintf("fpindex: fingerprint %q found %v, inserted %v", oid, found, inserted))
				}
				return (p.Now() - s).Duration()
			}
			t0 := p.Now()
			for _, i := range probeOrder {
				hits = append(hits, probe(present[i], true))
			}
			for _, oid := range absent {
				negs = append(negs, probe(oid, false))
			}
			elapsed = (p.Now() - t0).Duration()
		})
		check(h.c.FPIndexVerify())
		after := h.c.FPIndexStats()

		absentProbes := float64(max(after.AbsentProbes-before.AbsentProbes, 1))
		return FPIndexLatencyRow{
			Seed:        c.seed,
			Entries:     c.entries,
			CacheKiB:    int64(c.cache >> 10),
			IndexKiB:    after.TableBytes / int64(len(h.c.OSDs())) >> 10,
			HitP50Us:    percentileUs(hits, 50),
			HitP99Us:    percentileUs(hits, 99),
			NegP50Us:    percentileUs(negs, 50),
			NegP99Us:    percentileUs(negs, 99),
			CacheHitPct: cacheHitPct(before, after),
			ProbeKops:   float64(len(hits)+len(negs)) / elapsed.Seconds() / 1000,
			EstFPPct:    100 * (after.EstFPSum - before.EstFPSum) / absentProbes,
			ObsFPPct:    100 * float64(after.BloomFalsePos-before.BloomFalsePos) / absentProbes,
		}
	})
}

// FPIndexLatencyTable renders the lookup-latency sweep.
func FPIndexLatencyTable(rows []FPIndexLatencyRow) Table {
	return table("fpindex: chunk-existence lookup latency vs index size x block cache (per-OSD LSM index)",
		[]string{"seed", "entries", "cache KiB", "index KiB/osd", "hit p50 us", "hit p99 us", "neg p50 us", "neg p99 us", "cache hit %", "probe kops/s", "obs FP %", "est FP %"},
		[]string{
			"shape target: hit p50 rises monotonically with index size once SSTables exceed the cache (the cliff); cached configs stay flat",
			"shape target: negative lookups stay near-flat across index sizes - bloom filters reject them before any block I/O",
			"shape target: observed bloom false-positive rate within ~2x of the filters' design rate (est FP)",
		},
		rows, func(r FPIndexLatencyRow) []string {
			return []string{
				fmt.Sprint(r.Seed), fmt.Sprint(r.Entries), fmt.Sprint(r.CacheKiB),
				fmt.Sprint(r.IndexKiB), f1(r.HitP50Us), f1(r.HitP99Us),
				f1(r.NegP50Us), f1(r.NegP99Us), f1(r.CacheHitPct),
				f1(r.ProbeKops), f2(r.ObsFPPct), f2(r.EstFPPct),
			}
		})
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
	configs := []struct {
		label string
		cfg   fpindex.Config
	}{
		{label: "flat map (index off)"},
		{label: "lsm index, 1 MiB cache", cfg: fpIndexSweepConfig(1 << 20)},
		{label: "lsm index, 4 KiB cache", cfg: fpIndexSweepConfig(4 << 10)},
	}
	type flushCase struct {
		seed  int64
		label string
		cfg   fpindex.Config
	}
	var cases []flushCase
	for _, seed := range []int64{1311, 1312} {
		for _, bc := range configs {
			cases = append(cases, flushCase{seed, bc.label, bc.cfg})
		}
	}
	return Runs(sc, cases, func(tb *Testbed, c flushCase) FPIndexFlushRow {
		h := tb.harness(c.seed, 2, 2)
		s := h.dedupStore(func(cfg *core.Config) {
			cfg.ChunkSize = 4096
			cfg.Rate.Enabled = false
			cfg.HitSet.HitCount = 1000
			cfg.DedupThreads = 4
			cfg.FPIndex = c.cfg
		})
		dev := h.dedupDevice("img", span, s)
		h.run(func(p *sim.Proc) {
			runFIO(p, dev, workload.FIOConfig{
				BlockSize: 64 << 10, Span: span, Pattern: workload.SeqWrite,
				DedupPct: 80, Threads: 4, IODepth: 4, Seed: c.seed,
			})
		})
		before := h.c.FPIndexStats()
		var elapsed time.Duration
		h.run(func(p *sim.Proc) {
			t0 := p.Now()
			s.StartEngine()
			s.Engine().DrainAndWait(p)
			elapsed = (p.Now() - t0).Duration()
		})
		check(h.c.FPIndexVerify())
		after := h.c.FPIndexStats()
		st := s.Engine().Stats()
		return FPIndexFlushRow{
			Config:        c.label,
			Seed:          c.seed,
			ChunksFlushed: st.ChunksFlushed,
			ElapsedMs:     float64(elapsed) / float64(time.Millisecond),
			FlushMBps:     float64(st.ChunksFlushed*4096) / (1 << 20) / elapsed.Seconds(),
			IndexLookups:  after.Lookups - before.Lookups,
			CacheHitPct:   cacheHitPct(before, after),
			IndexWriteKiB: (after.WriteBytes - before.WriteBytes) >> 10,
		}
	})
}

// FPIndexFlushTable renders the flush-throughput comparison.
func FPIndexFlushTable(rows []FPIndexFlushRow) Table {
	return table("fpindex: background dedup flush throughput - flat map vs LSM fingerprint index",
		[]string{"config", "seed", "chunks flushed", "elapsed ms", "flush MB/s", "index lookups", "cache hit %", "index write KiB"},
		[]string{
			"shape target: flush bandwidth holds within ~5% of the flat map - index WAL/SSTable writes mostly overlap the replicated chunk writes on the dedup QoS budget; cache starvation shows up as a lower block-cache hit ratio and the larger share of the loss",
			"flat-map rows show zero index traffic: the Config switch leaves the default path untouched",
		},
		rows, func(r FPIndexFlushRow) []string {
			return []string{
				r.Config, fmt.Sprint(r.Seed), fmt.Sprint(r.ChunksFlushed),
				f1(r.ElapsedMs), f1(r.FlushMBps), fmt.Sprint(r.IndexLookups),
				f1(r.CacheHitPct), fmt.Sprint(r.IndexWriteKiB),
			}
		})
}

// fpindexTables runs both fpindex tables as one golden-gated experiment.
func fpindexTables(sc Scale) []Table {
	return []Table{FPIndexLatencyTable(FPIndexLatencySweep(sc)), FPIndexFlushTable(FPIndexFlushSweep(sc))}
}
