// Command dedupctl is an inspection and administration tool for the
// simulated dedup store: it builds a cluster, loads a dataset (synthetic or
// from a block trace), and then runs admin actions — df, status, deep
// scrub, bit-rot injection + repair, GC, cold eviction — printing what a
// storage operator would see.
//
// Usage:
//
//	dedupctl [flags] <action>...
//
// Actions: status df metrics qos sim index tiering tenants scrub corrupt repair gc audit evict verify chaos
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"dedupstore"
	"dedupstore/internal/chaos"
	"dedupstore/internal/chunker"
	"dedupstore/internal/fpindex"
	"dedupstore/internal/gateway"
	"dedupstore/internal/store"
	"dedupstore/internal/workload"
)

type ctl struct {
	world *dedupstore.World
	store *dedupstore.Store
	dev   *dedupstore.BlockDevice
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "simulation seed")
		size     = flag.Int64("size", 16<<20, "device size in bytes")
		dedupPct = flag.Float64("dedup", 50, "synthetic content dedup percentage")
		chunkKB  = flag.Int64("chunk", 32, "chunk size in KiB")
		useCDC   = flag.Bool("cdc", false, "use content-defined chunking")
		fpRefs   = flag.Bool("fp-refs", false, "false-positive refcount mode (requires gc)")
		traceIn  = flag.String("trace", "", "replay this block trace instead of synthetic fill")
		noisySLO = flag.String("slo", "bronze", "SLO for the tenants action's noisy tenant: gold|silver|bronze|unthrottled or weight=N,rate=SIZE,burst=SIZE,inflight=N")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dedupctl [flags] <action>...\nactions: status df metrics qos sim index tiering tenants scrub corrupt repair gc audit evict verify chaos\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	actions := flag.Args()
	if len(actions) == 0 {
		actions = []string{"status", "df"}
	}

	c := &ctl{world: dedupstore.NewWorld(*seed)}
	cfg := dedupstore.DefaultConfig()
	cfg.ChunkSize = *chunkKB << 10
	cfg.Rate.Enabled = false
	cfg.HitSet.HitCount = 1000
	cfg.DedupThreads = 8
	cfg.FalsePositiveRefs = *fpRefs
	// The index and tiering actions need their subsystems up before the
	// store opens its pools, so pre-scan the action list.
	for _, a := range actions {
		if a == "index" {
			cfg.FPIndex = fpindex.DefaultConfig()
			cfg.FPIndex.Enabled = true
			// Demo-sized memtable so SSTables and compaction show up even on
			// the default few-MB dataset.
			cfg.FPIndex.MemtableBytes = 2 << 10
		}
		if a == "tiering" {
			cfg.Tiering = dedupstore.DefaultTiering()
		}
	}
	if *useCDC {
		cdc := chunker.NewCDC(cfg.ChunkSize/4, cfg.ChunkSize, cfg.ChunkSize*4)
		cfg.CDC = &cdc
	}
	s, err := dedupstore.OpenStore(c.world.Cluster, cfg)
	if err != nil {
		log.Fatal(err)
	}
	c.store = s
	c.dev, err = dedupstore.NewBlockDevice("vol", *size, 1<<20, s.Client("ctl"))
	if err != nil {
		log.Fatal(err)
	}

	c.load(*traceIn, *size, *dedupPct)

	for _, action := range actions {
		fmt.Printf("--- %s ---\n", action)
		switch action {
		case "status":
			c.status()
		case "df":
			c.df()
		case "metrics":
			c.metrics()
		case "qos":
			c.qos()
		case "sim":
			c.simStats()
		case "index":
			c.index()
		case "tiering":
			c.tiering()
		case "tenants":
			c.tenants(*noisySLO)
		case "scrub":
			c.scrub(false)
		case "repair":
			c.scrub(true)
		case "corrupt":
			c.corrupt()
		case "gc":
			c.gc()
		case "audit":
			c.audit()
		case "evict":
			c.evict()
		case "verify":
			c.verify()
		case "chaos":
			c.chaos(*seed)
		default:
			log.Fatalf("dedupctl: unknown action %q", action)
		}
	}
}

// load fills the store and deduplicates it.
func (c *ctl) load(tracePath string, size int64, dedupPct float64) {
	c.world.Run(func(p *dedupstore.Proc) {
		if tracePath != "" {
			f, err := os.Open(tracePath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			ops, err := workload.ParseTrace(f)
			if err != nil {
				log.Fatal(err)
			}
			res := workload.ReplayTrace(p, c.dev, ops, 0, 16)
			fmt.Printf("replayed %d trace ops (%d errors) in %v virtual\n",
				res.Reads.Lat.Count()+res.Writes.Lat.Count(), res.Errors, res.Elapsed)
		} else {
			res := workload.RunFIO(p, c.dev, workload.FIOConfig{
				BlockSize: 64 << 10, Span: size, Pattern: workload.SeqWrite,
				DedupPct: dedupPct, Threads: 8, IODepth: 4, Seed: 3,
			})
			if res.Errors > 0 {
				log.Fatalf("load: %d errors", res.Errors)
			}
			fmt.Printf("loaded %.1f MB synthetic data (dedup %.0f%%) at %.0f MB/s virtual\n",
				float64(size)/1e6, dedupPct, res.Throughput())
		}
		c.store.Engine().DrainAndWait(p)
	})
}

func (c *ctl) status() {
	cl := c.world.Cluster
	fmt.Printf("cluster: %d hosts, %d OSDs, epoch %d\n", cl.HostCount(), len(cl.OSDs()), cl.Map().Epoch)
	st := c.store.Engine().Stats()
	fmt.Printf("engine: %d objects scanned, %d chunks flushed (%.1f MB), %d duplicate hits, %d requeues\n",
		st.ObjectsScanned, st.ChunksFlushed, float64(st.BytesFlushed)/1e6, st.DupChunks, st.Requeued)
	skipped, kept, evicted := c.store.Cache().Stats()
	fmt.Printf("cache: %d hot skips, %d kept cached, %d evicted cold\n", skipped, kept, evicted)
	fmt.Printf("virtual time: %v\n", c.world.Engine.Now())
}

func (c *ctl) df() {
	cl := c.world.Cluster
	meta := cl.PoolStats(c.store.MetaPool())
	chunk := cl.PoolStats(c.store.ChunkPool())
	fmt.Printf("%-10s %10s %14s %14s %14s\n", "pool", "objects", "logical", "stored-data", "stored-meta")
	fmt.Printf("%-10s %10d %11.2f MB %11.2f MB %11.2f MB\n", meta.Name, meta.Objects,
		float64(meta.LogicalBytes)/1e6, float64(meta.StoredPhysical)/1e6, float64(meta.StoredMetadata)/1e6)
	fmt.Printf("%-10s %10d %11.2f MB %11.2f MB %11.2f MB\n", chunk.Name, chunk.Objects,
		float64(chunk.LogicalBytes)/1e6, float64(chunk.StoredPhysical)/1e6, float64(chunk.StoredMetadata)/1e6)
	total := meta.StoredTotal() + chunk.StoredTotal()
	if cp := c.store.ColdChunkPool(); cp != nil {
		cold := cl.PoolStats(cp)
		fmt.Printf("%-10s %10d %11.2f MB %11.2f MB %11.2f MB\n", cold.Name, cold.Objects,
			float64(cold.LogicalBytes)/1e6, float64(cold.StoredPhysical)/1e6, float64(cold.StoredMetadata)/1e6)
		total += cold.StoredTotal()
	}
	logical := meta.LogicalBytes
	fmt.Printf("raw stored %.2f MB for %.2f MB logical", float64(total)/1e6, float64(logical)/1e6)
	if logical > 0 {
		overhead := c.store.Config().MetaRedundancy.Overhead()
		fmt.Printf(" -> %.1f%% saved vs %gx replication", 100*(1-float64(total)/(overhead*float64(logical))), overhead)
	}
	fmt.Println()
}

// metrics dumps the cluster-wide registry (Prometheus exposition text) plus
// the per-resource queue/utilization table.
func (c *ctl) metrics() {
	fmt.Print(c.world.Cluster.DumpMetrics())
	fmt.Println()
	fmt.Print(dedupstore.FormatUsage(c.world.Cluster.Resources().Snapshot(c.world.Engine.Now())))
}

// qos dumps the per-OSD op scheduler's per-class state: weights, depth
// caps, admission counters and queue pressure, aggregated across every disk
// and NIC scheduler in the cluster.
func (c *ctl) qos() {
	fmt.Printf("%-10s %7s %6s %9s %10s %10s %10s %7s %9s %12s %12s\n",
		"class", "weight", "cap", "limit", "admitted", "queued", "throttled", "inq", "max-queue", "queue-wait", "busy")
	for _, t := range c.world.Cluster.QoS().Totals() {
		limit := "-"
		if t.Limit > 0 {
			limit = t.Limit.Round(time.Microsecond).String()
		}
		fmt.Printf("%-10s %7d %6d %9s %10d %10d %10d %7d %9d %12v %12v\n",
			t.Class, t.Weight, t.MaxDepth, limit, t.Admitted, t.Queued, t.Throttled,
			t.QueueLen, t.MaxQueue, t.QueueWait.Round(time.Microsecond), t.Busy.Round(time.Microsecond))
	}
	// The dedup limit's cost, which the table above cannot show: time flush
	// slots spent asleep in admission (WaitTurn), not queued at any device.
	reg := c.world.Cluster.Metrics()
	pw := reg.Histogram("dedup_pacing_wait")
	fmt.Printf("dedup pacing: %d paced slots waited %v in admission (mean %v, max %v); rate policy parked: %d\n",
		pw.Count(), pw.Sum().Round(time.Microsecond), pw.Mean().Round(time.Microsecond), pw.Max().Round(time.Microsecond),
		reg.Gauge("dedup_rate_policy_parked").Value())
}

// simStats prints the DES kernel's execution counters and the trace sink's
// sampling state — what running the simulation itself cost, as opposed to
// what the simulated cluster did.
func (c *ctl) simStats() {
	st := c.world.Engine.Stats()
	fmt.Printf("virtual time: %v\n", c.world.Engine.Now())
	fastPct := 0.0
	if st.EventsDispatched > 0 {
		fastPct = 100 * float64(st.FastPath) / float64(st.EventsDispatched)
	}
	fmt.Printf("events: %d scheduled, %d dispatched (%d same-time fast path, %.1f%%)\n",
		st.EventsScheduled, st.EventsDispatched, st.FastPath, fastPct)
	fmt.Printf("queues: event-heap high-water %d, same-time FIFO high-water %d\n",
		st.PeakHeap, st.PeakFIFO)
	fmt.Printf("procs: %d goroutines spawned, %d starts served from the free pool, %d live, %d pooled\n",
		st.ProcsSpawned, st.ProcsReused, st.ProcsLive, st.ProcsPooled)
	sink := c.world.Cluster.Trace()
	fmt.Printf("trace: sampling 1 of every %d spans, %d seen, %d recorded\n",
		sink.Sample(), sink.Seen(), sink.Total())
}

// tenants runs a short multi-tenant demo — a gold interactive tenant, a
// silver steady writer, and a noisy tenant (SLO from -slo) hammering
// low-dup random writes — through the gateway's per-tenant admission, then
// prints the per-tenant accounting table an operator would read to answer
// "who is loading the cluster, and is anyone blowing their neighbors' tail?"
func (c *ctl) tenants(noisySpec string) {
	slo, err := gateway.ParseSLO(noisySpec)
	if err != nil {
		log.Fatalf("dedupctl: -slo %q: %v", noisySpec, err)
	}
	coord := dedupstore.NewTenantCoordinator(c.world.Cluster.Metrics(), 0)
	span := int64(8 << 20)
	type job struct {
		name string
		slo  gateway.SLO
		cfg  workload.FIOConfig
	}
	jobs := []job{
		{name: "interactive", slo: gateway.Gold, cfg: workload.FIOConfig{
			BlockSize: 16 << 10, Span: span, Pattern: workload.RandWrite,
			DedupPct: 50, Threads: 2, IODepth: 2, Seed: 11, Ops: 256,
		}},
		{name: "steady", slo: gateway.Silver, cfg: workload.FIOConfig{
			BlockSize: 64 << 10, Span: span, Pattern: workload.SeqWrite,
			DedupPct: 80, Threads: 4, IODepth: 4, Seed: 12, Ops: 256,
		}},
		{name: "noisy", slo: slo, cfg: workload.FIOConfig{
			BlockSize: 64 << 10, Span: span, Pattern: workload.RandWrite,
			DedupPct: 0, Threads: 8, IODepth: 8, Seed: 13, Ops: 512,
		}},
	}
	devs := make([]*dedupstore.BlockDevice, len(jobs))
	for i, j := range jobs {
		tn, err := coord.Register(j.name, j.slo)
		if err != nil {
			log.Fatal(err)
		}
		devs[i], err = dedupstore.NewTenantBlockDevice("ten."+j.name, span, 1<<20,
			c.store.Client("client."+j.name), tn)
		if err != nil {
			log.Fatal(err)
		}
	}
	c.world.Run(func(p *dedupstore.Proc) {
		for i := range jobs {
			i := i
			p.Go("tenant."+jobs[i].name, func(q *dedupstore.Proc) {
				if res := workload.RunFIO(q, devs[i], jobs[i].cfg); res.Errors > 0 {
					log.Fatalf("tenant %s: %d errors", jobs[i].name, res.Errors)
				}
			})
		}
	})
	fmt.Printf("%-12s %-22s %7s %9s %10s %12s %9s %9s\n",
		"tenant", "slo", "ops", "MB", "throttled", "queue-wait", "mean ms", "p99 ms")
	for _, st := range coord.Stats() {
		fmt.Printf("%-12s %-22s %7d %9.2f %10d %12v %9.2f %9.2f\n",
			st.Name, tenantSLO(st), st.Ops, float64(st.Bytes)/1e6, st.Throttled,
			st.QueueWait.Round(time.Millisecond),
			float64(st.MeanLat)/float64(time.Millisecond),
			float64(st.P99Lat)/float64(time.Millisecond))
	}
}

// tenantSLO renders a tenant's contract compactly for the table.
func tenantSLO(st dedupstore.TenantStats) string {
	s := gateway.SLO{Class: st.Class, Weight: st.Weight, RateBps: st.RateBps,
		Burst: st.Burst, MaxInflight: st.MaxInflight}
	for _, preset := range []gateway.SLO{gateway.Gold, gateway.Silver, gateway.Bronze} {
		if s == preset {
			return s.Class
		}
	}
	return s.String()
}

// index dumps the per-OSD fingerprint index state: live entries, memtable
// and WAL footprint, SSTable bytes and per-level table counts, bloom
// observed vs design false-positive rate, block-cache hit ratio and
// compaction count — the dedupctl qos of the chunk-existence path.
func (c *ctl) index() {
	infos := c.world.Cluster.FPIndexPerOSD()
	if len(infos) == 0 {
		fmt.Println("fingerprint index not enabled (include the index action so the store opens with it)")
		return
	}
	levels := func(s fpindex.Stats) string {
		if len(s.LevelTables) == 0 {
			return "-"
		}
		parts := make([]string, len(s.LevelTables))
		for i, n := range s.LevelTables {
			parts[i] = strconv.Itoa(n)
		}
		return strings.Join(parts, "/")
	}
	fmt.Printf("%-6s %9s %9s %9s %10s %8s %8s %10s %10s %9s %9s\n",
		"osd", "entries", "mem KiB", "wal KiB", "table KiB", "tables", "levels", "obs FP %", "est FP %", "cache %", "compact")
	for _, info := range infos {
		s := info.Stats
		fmt.Printf("osd.%-2d %9d %9d %9d %10d %8d %8s %10.2f %10.2f %9.1f %9d\n",
			info.OSD, s.Entries, s.MemtableBytes>>10, s.WALBytes>>10, s.TableBytes>>10,
			s.Tables, levels(s), 100*s.ObservedFP(), 100*s.EstimatedFP(),
			100*s.CacheHitRatio(), s.Compactions)
	}
	t := c.world.Cluster.FPIndexStats()
	fmt.Printf("%-6s %9d %9d %9d %10d %8d %8s %10.2f %10.2f %9.1f %9d\n",
		"TOTAL", t.Entries, t.MemtableBytes>>10, t.WALBytes>>10, t.TableBytes>>10,
		t.Tables, "-", 100*t.ObservedFP(), 100*t.EstimatedFP(),
		100*t.CacheHitRatio(), t.Compactions)
	fmt.Printf("lookups %d (memtable hits %d), inserts %d, deletes %d, flushes %d, WAL replays %d, lookup/store mismatches %d\n",
		t.Lookups, t.MemHits, t.Inserts, t.Deletes, t.Flushes, t.Recoveries,
		c.world.Cluster.Metrics().Counter("fpindex_lookup_mismatch_total").Value())
}

// tiering exercises the adaptive-redundancy policy daemon over the loaded
// dataset: the namespace cools past the hitset horizon, a small working set
// is re-heated across consecutive periods, and policy passes run to
// convergence. Prints the per-temperature census and the migration totals —
// what an operator would read to answer "where does my data live, and what
// did it cost the cluster to move it there?"
func (c *ctl) tiering() {
	cfg := c.store.Config()
	if !cfg.Tiering.Enabled {
		fmt.Println("tiering not enabled (include the tiering action so the store opens with it)")
		return
	}
	c.world.Run(func(p *dedupstore.Proc) {
		read := func(off, length int64) {
			if _, err := c.dev.ReadAt(p, off, length); err != nil {
				log.Fatal(err)
			}
		}
		// Everything the load wrote is warm right now; let it all cool past
		// the hitset horizon, then run the daemon while re-reading the
		// device's first objects every period — the daemon demotes the cold
		// bulk to EC and recaches the re-heated set.
		p.Sleep(time.Duration(cfg.HitSet.Retain+1) * cfg.HitSet.Period)
		hotSpan := 2 * c.dev.ObjectSize()
		if hotSpan > c.dev.Size() {
			hotSpan = c.dev.Size()
		}
		c.store.StartTieringDaemon()
		for r := 0; r < 5; r++ {
			read(0, hotSpan)
			p.Sleep(cfg.HitSet.Period + cfg.HitSet.Period/10)
		}
		c.store.StopTieringDaemon()
		p.Sleep(2 * cfg.Tiering.Interval) // let the daemon notice and exit
		// One final pass for the census: reads in two consecutive periods
		// grade the working set hot, a single first touch grades the next
		// span warm (and promotes its chunks back out of EC), the untouched
		// bulk stays cold.
		read(0, hotSpan)
		p.Sleep(cfg.HitSet.Period)
		read(0, hotSpan)
		if warmSpan := hotSpan; warmSpan*2 <= c.dev.Size() {
			read(warmSpan, warmSpan)
		}
		if _, err := c.store.TierPass(p); err != nil {
			log.Fatal(err)
		}
	})
	census, at := c.store.TierCensus()
	fmt.Printf("%-5s %8s %12s\n", "tier", "objects", "bytes")
	for t := 2; t >= 0; t-- {
		fmt.Printf("%-5s %8d %9.2f MB\n",
			[3]string{"cold", "warm", "hot"}[t], census.Objects[t], float64(census.Bytes[t])/1e6)
	}
	st := c.store.TierStats()
	fmt.Printf("census at %v after %d pass(es); daemon running=%v, %d migration(s) in flight\n",
		at, st.Passes, c.store.TieringDaemonRunning(), c.store.TierInFlight())
	fmt.Printf("promote: %d recaches (%.2f MB rehydrated), %d chunks EC->replicated\n",
		st.Recaches, float64(st.RecachedBytes)/1e6, st.PromotedChunks)
	fmt.Printf("demote:  %d rededups, %d evicts (%d cached copies dropped), %d chunks replicated->EC\n",
		st.Rededups, st.Evicts, st.EvictedChunks, st.DemotedChunks)
	fmt.Printf("moved %.2f MB between chunk pools; %d raced skips, %d errors\n",
		float64(st.MigratedBytes)/1e6, st.RacedSkips, st.Errors)
}

func (c *ctl) scrub(repair bool) {
	c.world.Run(func(p *dedupstore.Proc) {
		for _, pool := range []*dedupstore.Pool{c.store.MetaPool(), c.store.ChunkPool()} {
			stats := c.world.Cluster.Scrub(p, pool, repair)
			fmt.Printf("pool %s: %d objects, %.1f MB scanned, %d inconsistencies, %d repaired\n",
				pool.Name, stats.Objects, float64(stats.BytesScanned)/1e6, len(stats.Errors), stats.Repaired)
			for i, e := range stats.Errors {
				if i >= 5 {
					fmt.Printf("  ... %d more\n", len(stats.Errors)-5)
					break
				}
				fmt.Printf("  %s\n", e)
			}
		}
	})
}

// corrupt injects bit rot into the first chunk object found (for demos).
func (c *ctl) corrupt() {
	chunkPool := c.store.ChunkPool()
	oids := c.world.Cluster.ListObjects(chunkPool)
	if len(oids) == 0 {
		fmt.Println("no chunk objects to corrupt")
		return
	}
	oid := oids[0]
	for _, osd := range c.world.Cluster.OSDs() {
		st, _ := c.world.Cluster.OSDStore(osd)
		key := store.Key{Pool: chunkPool.ID, OID: oid}
		if st.Exists(key) {
			if err := c.world.Cluster.CorruptForTest(osd, key, 0); err == nil {
				fmt.Printf("flipped a byte of %s on osd.%d\n", oid[:16]+"...", osd)
				return
			}
		}
	}
}

func (c *ctl) gc() {
	c.world.Run(func(p *dedupstore.Proc) {
		stats, err := c.store.GC(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("gc: %d chunks scanned, %d refs checked, %d stale, %d chunks deleted (%.2f MB reclaimed)\n",
			stats.ChunksScanned, stats.RefsChecked, stats.StaleRefs, stats.ChunksDeleted, float64(stats.BytesReclaimed)/1e6)
		if stats.IntentsPromoted+stats.IntentsAborted+stats.CountsFixed+stats.RacedSkips+stats.BadRefKeys > 0 {
			fmt.Printf("gc: %d intents promoted, %d aborted, %d counts fixed, %d raced skips, %d bad keys\n",
				stats.IntentsPromoted, stats.IntentsAborted, stats.CountsFixed, stats.RacedSkips, stats.BadRefKeys)
		}
	})
}

func (c *ctl) audit() {
	c.world.Run(func(p *dedupstore.Proc) {
		stats, err := c.store.Audit(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("audit: %d objects, %d bindings checked, %d intents promoted, %d refs repaired, %d counts fixed, %d lost chunks\n",
			stats.MetadataObjects, stats.BindingsChecked, stats.IntentsPromoted, stats.RefsRepaired, stats.CountsFixed, stats.LostChunks)
	})
}

func (c *ctl) evict() {
	c.world.Run(func(p *dedupstore.Proc) {
		p.Sleep(10 * time.Second) // let hotness decay
		stats := c.store.Engine().EvictCold(p)
		fmt.Printf("evict: %d objects scanned, %d chunks (%.2f MB) demoted, %d still hot\n",
			stats.ObjectsScanned, stats.ChunksEvicted, float64(stats.BytesEvicted)/1e6, stats.SkippedHot)
	})
}

// chaos crashes one OSD under the loaded store, lets the heartbeat monitor
// detect it, remap and recover, restarts it, and prints the availability
// timeline an operator would reconstruct from cluster logs. Deterministic
// for a given -seed; follow with `verify gc` to audit the aftermath.
func (c *ctl) chaos(seed int64) {
	mon := c.world.Cluster.StartMonitor(dedupstore.MonitorConfig{
		Interval:    250 * time.Millisecond,
		Grace:       time.Second,
		OutAfter:    2500 * time.Millisecond,
		AutoRecover: true,
	})
	inj := dedupstore.NewFaultInjector(c.world.Cluster)
	osds := c.world.Cluster.OSDs()
	target := osds[int(seed)%len(osds)]
	start := c.world.Engine.Now()
	inj.Apply(dedupstore.FaultSchedule{
		{At: 500 * time.Millisecond, Kind: chaos.KindCrashOSD, OSD: target, Duration: 6 * time.Second},
	})
	c.world.Run(func(p *dedupstore.Proc) {
		p.Sleep(7 * time.Second) // past crash + revert
		mon.WaitSettled(p)
	})
	mon.Stop()
	rel := func(at dedupstore.SimTime) time.Duration { return (at - start).Duration() }
	for _, ev := range inj.Events() {
		what := "fault: " + ev.Fault.String()
		if ev.Revert {
			what = "fault reverted: " + ev.Fault.String()
		}
		fmt.Printf("%8v  %s\n", rel(ev.At), what)
	}
	for _, ev := range mon.Events() {
		fmt.Printf("%8v  monitor: %s osd.%d\n", rel(ev.At), ev.Kind, ev.OSD)
	}
	reg := c.world.Cluster.Metrics()
	fmt.Printf("degraded reads %d, degraded writes %d, timeouts %d, recovered %.2f MB\n",
		reg.Counter("rados_degraded_reads_total").Value(),
		reg.Counter("rados_degraded_writes_total").Value(),
		reg.Counter("rados_requests_timed_out_total").Value(),
		float64(c.world.Cluster.RecoveredBytes())/1e6)
}

func (c *ctl) verify() {
	c.world.Run(func(p *dedupstore.Proc) {
		rep, err := c.store.Scrub(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dedup scrub: %d metadata objects, %d chunks, %.1f MB verified, %d issues\n",
			rep.MetadataObjects, rep.ChunkObjects, float64(rep.BytesVerified)/1e6, len(rep.Issues))
		for i, is := range rep.Issues {
			if i >= 5 {
				fmt.Printf("  ... %d more\n", len(rep.Issues)-5)
				break
			}
			fmt.Printf("  %s: %s\n", is.OID, is.Detail)
		}
	})
}
