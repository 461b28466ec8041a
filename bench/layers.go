package main

import (
	"sort"
	"strings"
	"time"

	"dedupstore/internal/core"
	"dedupstore/internal/fpindex"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
)

// histSnap is a point-in-time copy of a registry histogram, so that a
// window's distribution can be taken as the difference of two.
type histSnap struct {
	count   int64
	sum     time.Duration
	buckets map[time.Duration]int64
}

func snapHist(h *metrics.Histogram) histSnap {
	s := histSnap{count: int64(h.Count()), sum: h.Sum(), buckets: map[time.Duration]int64{}}
	for _, b := range h.Buckets() {
		s.buckets[b.Le] = b.Count
	}
	return s
}

// since returns the mean and 99th percentile (bucket upper bounds) of the
// samples added after old was taken, in microseconds, and their count.
func (s histSnap) since(old histSnap) (meanUS, p99US float64, n int64) {
	n = s.count - old.count
	if n <= 0 {
		return 0, 0, 0
	}
	meanUS = float64(s.sum-old.sum) / float64(n) / 1e3
	les := make([]time.Duration, 0, len(s.buckets))
	for le := range s.buckets {
		les = append(les, le)
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	rank := (n*99 + 99) / 100
	var cum int64
	for _, le := range les {
		if cum += s.buckets[le] - old.buckets[le]; cum >= rank {
			return meanUS, float64(le) / 1e3, n
		}
	}
	return meanUS, float64(les[len(les)-1]) / 1e3, n
}

// layerSnap is everything the per-layer table reads through the program's
// public surface, captured at one edge of the timed phase.
type layerSnap struct {
	counters  map[string]int64
	hists     map[string]histSnap
	qos       []qos.ClassTotals
	tier      core.TierStats
	fp        fpindex.Stats
	resources map[string][2]float64 // per resource: busy slot-ns, queue-ns
	caps      map[string]int
}

var layerCounters = []string{
	"rados_degraded_reads_total", "rados_degraded_writes_total",
	"rados_recovery_bytes_moved_total", "rados_recovery_objects_copied_total", "rados_recovery_shards_rebuilt_total",
	"fpindex_lookup_mismatch_total",
}

var layerHists = []string{"dedup_op_latency:dedup.write", "dedup_op_latency:dedup.read", "fpindex_lookup_latency", "rados_recovery_duration"}

func (w *world) snapLayers() layerSnap {
	reg := w.c.Metrics()
	s := layerSnap{
		counters: map[string]int64{}, hists: map[string]histSnap{},
		qos: w.c.QoS().Totals(), tier: w.s.TierStats(), fp: w.c.FPIndexStats(),
		resources: map[string][2]float64{}, caps: map[string]int{},
	}
	for _, name := range layerCounters {
		s.counters[name] = reg.Counter(name).Value()
	}
	names := append([]string(nil), layerHists...)
	for _, cls := range qos.ClassNames() {
		names = append(names, "qos_queue_wait:"+cls)
	}
	for _, name := range names {
		s.hists[name] = snapHist(reg.Histogram(name))
	}
	now := w.eng.Now()
	for _, u := range w.c.Resources().Snapshot(now) {
		s.resources[u.Name] = [2]float64{u.Utilization * float64(now) * float64(u.Capacity), u.AvgQueue * float64(now)}
		s.caps[u.Name] = u.Capacity
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns float64) float64 { return ns / 1e3 }

// aggOf merges the drained span aggregates whose key has one of the
// prefixes ("name/class", or "name" alone for every class).
func (t *tracer) aggOf(keys ...string) *spanAgg {
	out := &spanAgg{pools: map[string]int64{}, poolBytes: map[string]int64{}}
	for key, a := range t.spans {
		for _, want := range keys {
			if key == want || strings.HasPrefix(key, want+"/") {
				out.dur = append(out.dur, a.dur...)
				out.wait += a.wait
				out.bytes += a.bytes
				for pool, n := range a.pools {
					out.pools[pool] += n
					out.poolBytes[pool] += a.poolBytes[pool]
				}
				break
			}
		}
	}
	return out
}

// layerTable computes the S-sourced per-layer metrics of a traced run. The
// P and C sourced ones, and the two that compare against an untraced run,
// are added by the caller.
func (r *run) layerTable() map[string]metric {
	t, a, b := r.tr, r.layers0, r.layers1
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{Value: v} }
	counted := func(counter string) float64 { return float64(b.counters[counter] - a.counters[counter]) }
	simDur := float64(r.sim1.now - r.sim0.now)

	clientOps := float64(len(t.client[opWrite]) + len(t.client[opRead]))
	set("client.ops", clientOps)
	set("client.backend_calls_per_op", ratio(float64(t.outer[opWrite].calls+t.outer[opRead].calls), clientOps))
	set("client.write_sim_us_p50", us(float64(percentile(sortedCopy(t.client[opWrite]), 50))))
	set("client.read_sim_us_p50", us(float64(percentile(sortedCopy(t.client[opRead]), 50))))

	var throttled int64
	for _, tn := range r.tenants {
		throttled += tn.Stats().Throttled
	}
	if len(r.tenants) > 0 {
		set("gateway.admit_wait_sim_us_mean", us(mean(t.admit)))
		set("gateway.admit_wait_sim_us_p99", us(float64(percentile(sortedCopy(t.admit), 99))))
	}
	set("gateway.throttled_ops", float64(throttled))

	set("core.write_sim_us_mean", us(ratio(float64(t.inner[opWrite].ns), float64(t.inner[opWrite].calls))))
	set("core.read_sim_us_mean", us(ratio(float64(t.inner[opRead].ns), float64(t.inner[opRead].calls))))
	redirects := t.aggOf("rados.read/client")
	chunkReads := redirects.pools[r.w.s.ChunkPool().Name]
	if cold := r.w.s.ColdChunkPool(); cold != nil {
		chunkReads += redirects.pools[cold.Name]
	}
	set("core.read_redirect_ratio", ratio(float64(chunkReads), float64(len(redirects.dur))))

	e0, e1 := r.sim0.engine, r.sim1.engine
	flushed := float64(e1.ChunksFlushed - e0.ChunksFlushed)
	noop := float64(e1.NoopFlushes - e0.NoopFlushes)
	set("core.flush.chunks", flushed)
	set("core.flush.MB", float64(e1.BytesFlushed-e0.BytesFlushed)/1e6)
	set("core.flush.dup_ratio", ratio(float64(e1.DupChunks-e0.DupChunks), flushed))
	set("core.flush.noop_ratio", ratio(noop, flushed+noop))
	set("core.flush.requeued", float64(e1.Requeued-e0.Requeued))
	set("core.flush.skipped_hot", float64(e1.SkippedHot-e0.SkippedHot))
	set("core.rate_adjusts", float64(e1.RateAdjusts-e0.RateAdjusts))
	flush := t.aggOf("dedup.flush")
	set("core.flush.sim_us_mean", us(mean(flush.dur)))
	set("core.flush.sim_us_p99", us(float64(percentile(sortedCopy(flush.dur), 99))))
	set("core.flush.queue_wait_share", ratio(float64(flush.wait), mean(flush.dur)*float64(len(flush.dur))))
	set("chunker.chunks_hashed", flushed+noop)

	passSum := map[string][2]float64{}
	for _, p := range r.passes {
		s := passSum[p.name]
		passSum[p.name] = [2]float64{s[0] + p.sim.Seconds(), s[1] + p.host.Seconds()}
	}
	for _, name := range []string{"gc", "scrub", "audit"} {
		set("core."+name+".sim_s", passSum[name][0])
		set("core."+name+".host_s", passSum[name][1])
	}
	set("core.gc.chunks_scanned", float64(r.maint.gc.ChunksScanned))
	set("core.gc.refs_checked", float64(r.maint.gc.RefsChecked))
	set("core.gc.chunks_deleted", float64(r.maint.gc.ChunksDeleted))
	set("core.scrub.verified_MB", r.maint.scrubMB)
	set("core.scrub.issues", float64(r.maint.scrubIssues))
	set("core.audit.bindings_checked", float64(r.maint.auditBindings))
	set("core.audit.repairs", float64(r.maint.auditRepairs))

	set("tiering.passes", float64(b.tier.Passes-a.tier.Passes))
	set("tiering.migrated_chunks", float64(b.tier.PromotedChunks+b.tier.DemotedChunks-a.tier.PromotedChunks-a.tier.DemotedChunks))
	set("tiering.migrated_MB", float64(b.tier.MigratedBytes-a.tier.MigratedBytes)/1e6)
	set("tiering.raced_skips", float64(b.tier.RacedSkips-a.tier.RacedSkips))
	census, _ := r.w.s.TierCensus()
	var objects, bytes int64
	for band := range census.Objects {
		objects += census.Objects[band]
		bytes += census.Bytes[band]
	}
	set("tiering.cold_share", ratio(float64(census.Bytes[0]), float64(bytes)))
	set("hitset.hot_share", ratio(float64(census.Objects[2]), float64(objects)))

	writes := t.aggOf("rados.write/client", "rados.writefull/client", "rados.mutate/client")
	reads := t.aggOf("rados.read/client")
	set("rados.write_sim_us_mean", us(mean(writes.dur)))
	set("rados.write_sim_us_p99", us(float64(percentile(sortedCopy(writes.dur), 99))))
	set("rados.read_sim_us_mean", us(mean(reads.dur)))
	set("rados.read_sim_us_p99", us(float64(percentile(sortedCopy(reads.dur), 99))))
	set("rados.fg_ops", float64(len(writes.dur)+len(reads.dur)))
	landed := float64(t.aggOf("rados.journal").bytes + t.aggOf("rados.replica").bytes)
	if cold := r.w.s.ColdChunkPool(); cold != nil {
		// EC shard writes carry no span of their own: charge the op's payload
		// at the pool's raw-to-logical overhead
		landed += float64(t.aggOf("rados.mutate", "rados.writefull").poolBytes[cold.Name]) * cold.Red.Overhead()
	}
	set("rados.write_amp", ratio(landed, float64(r.log.written)))
	set("rados.degraded_reads", counted("rados_degraded_reads_total"))
	set("rados.degraded_writes", counted("rados_degraded_writes_total"))
	recMean, _, recRuns := b.hists["rados_recovery_duration"].since(a.hists["rados_recovery_duration"])
	set("rados.recovery.sim_s", recMean*float64(recRuns)/1e6)
	set("rados.recovery.host_s", passSum["recovery"][1])
	set("rados.recovery.MB_moved", counted("rados_recovery_bytes_moved_total")/1e6)
	set("rados.recovery.objects_copied", counted("rados_recovery_objects_copied_total"))
	set("rados.recovery.shards_rebuilt", counted("rados_recovery_shards_rebuilt_total"))
	set("rados.monitor.detect_sim_ms", r.detectMS)

	for c, cls := range qos.ClassNames() {
		meanUS, p99US, _ := b.hists["qos_queue_wait:"+cls].since(a.hists["qos_queue_wait:"+cls])
		set("qos."+cls+".admitted", float64(b.qos[c].Admitted-a.qos[c].Admitted))
		set("qos."+cls+".queue_wait_sim_us_mean", meanUS)
		set("qos."+cls+".queue_wait_sim_us_p99", p99US)
	}

	for _, group := range []struct{ name, prefix string }{{"disk", "disk."}, {"nic", "nic.host"}, {"cpu", "cpu."}} {
		var sum, max, queue float64
		n := 0
		for res, v1 := range b.resources {
			if !strings.HasPrefix(res, group.prefix) {
				continue
			}
			v0 := a.resources[res]
			util := ratio(v1[0]-v0[0], simDur*float64(b.caps[res]))
			sum += util
			if util > max {
				max = util
			}
			queue += ratio(v1[1]-v0[1], simDur)
			n++
		}
		set("sim.res."+group.name+".util_mean", ratio(sum, float64(n)))
		set("sim.res."+group.name+".util_max", max)
		if group.name == "disk" {
			set("sim.res.disk.avg_queue", ratio(queue, float64(n)))
		}
	}

	k := r.kernel
	set("sim.events_dispatched", float64(k.EventsDispatched))
	set("sim.events_per_op", ratio(float64(k.EventsDispatched), float64(r.log.attempted)))
	set("sim.fastpath_ratio", ratio(float64(k.FastPath), float64(k.EventsDispatched)))
	set("sim.peak_heap", float64(k.PeakHeap))
	set("sim.procs_spawned", float64(k.ProcsSpawned))
	set("sim.procs_reused_ratio", ratio(float64(k.ProcsReused), float64(k.ProcsReused+k.ProcsSpawned)))

	if cold := r.w.s.ColdChunkPool(); cold != nil {
		// with one OSD marked down but alive, replicated reads never degrade:
		// every degraded read is an EC reconstruct
		set("ec.stripes_written", float64(t.aggOf("rados.mutate", "rados.writefull").pools[cold.Name]))
		set("ec.degraded_reconstructs", m["rados.degraded_reads"].Value)
	}

	set("store.objects", float64(r.usage.Objects))
	set("store.physical_MB", float64(r.usage.Physical)/1e6)
	set("store.metadata_MB", float64(r.usage.Metadata)/1e6)

	fpMean, fpP99, _ := b.hists["fpindex_lookup_latency"].since(a.hists["fpindex_lookup_latency"])
	set("fpindex.lookups", float64(b.fp.Lookups-a.fp.Lookups))
	set("fpindex.lookup_sim_us_mean", fpMean)
	set("fpindex.lookup_sim_us_p99", fpP99)
	set("fpindex.cache_hit_ratio", ratio(float64(b.fp.CacheHits-a.fp.CacheHits), float64(b.fp.CacheHits+b.fp.CacheMisses-a.fp.CacheHits-a.fp.CacheMisses)))
	set("fpindex.bloom_fp_ratio", ratio(float64(b.fp.BloomFalsePos-a.fp.BloomFalsePos), float64(b.fp.AbsentProbes-a.fp.AbsentProbes)))
	set("fpindex.compactions", float64(b.fp.Compactions-a.fp.Compactions))
	set("fpindex.wal_MB", float64(b.fp.WALBytes)/1e6)
	set("fpindex.mismatches", counted("fpindex_lookup_mismatch_total"))

	set("metrics.spans_recorded", float64(t.recorded))
	set("metrics.spans_dropped", float64(t.dropped))
	return m
}
