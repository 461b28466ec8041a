package rados

import (
	"fmt"
	"time"

	"dedupstore/internal/fpindex"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Fingerprint-index binding: when enabled for a pool (the dedup chunk
// pool), every OSD fronts that pool's object-existence metadata with a
// log-structured fingerprint index (internal/fpindex). Lookups on the pool
// charge bloom probes, block-cache misses and WAL/SSTable I/O through the
// OSD's QoS scheduler under the dedup class; mutations keep the index in
// lockstep with the store inside the osd type's mutation seam (osd.go), the
// only code that changes an OSD's objects. The store map stays authoritative
// — the index adds the cost model and is cross-checked against the store on
// every probe (fpindex_lookup_mismatch_total counts disagreements; it must
// stay zero).

// EnableFPIndex turns the fingerprint index on for a replicated pool. Each
// OSD gets its own index (bootstrapped from objects it already holds) and a
// background compaction daemon. Erasure pools are not supported: the chunk
// pool the paper's dedup tier indexes is replicated.
func (c *Cluster) EnableFPIndex(pool *Pool, cfg fpindex.Config) error {
	if pool == nil {
		return fmt.Errorf("rados: fpindex: nil pool")
	}
	if pool.Red.Kind != Replicated {
		return fmt.Errorf("rados: fpindex: pool %q is erasure-coded; only replicated pools are supported", pool.Name)
	}
	if c.fpPool != 0 {
		return fmt.Errorf("rados: fpindex already enabled for pool id %d", c.fpPool)
	}
	cfg.Enabled = true
	c.fpPool = pool.ID
	c.fpCfg = cfg
	c.fpLookupLat = c.reg.Histogram("fpindex_lookup_latency")
	c.fpMismatch = c.reg.Counter("fpindex_lookup_mismatch_total")
	for _, o := range c.allOSDs() {
		c.attachFPIndex(o)
	}
	return nil
}

// attachFPIndex creates an OSD's index, bootstraps it from the objects the
// OSD already holds in the indexed pool, and starts its compaction daemon.
func (c *Cluster) attachFPIndex(o *osd) {
	o.fpPool = c.fpPool
	o.fpidx = fpindex.New(c.fpCfg, fpindex.IO{
		Read:  func(p *sim.Proc, n int) { o.diskRead(p, qos.Dedup, c.cost, n) },
		Write: func(p *sim.Proc, n int) { o.diskWrite(p, qos.Dedup, c.cost, n) },
		CPU:   func(p *sim.Proc, d time.Duration) { o.host.cpu.Use(p, d) },
	})
	for _, key := range o.store.Keys() {
		if key.Pool == c.fpPool {
			o.fpidx.Insert(nil, key.OID, 0)
		}
	}
	c.eng.GoDaemon(fmt.Sprintf("fpindex.compact.osd%d", o.id), func(p *sim.Proc) {
		for {
			// A crashed OSD compacts nothing; otherwise drain all due merges
			// before going back to sleep.
			if o.alive && o.fpidx.CompactOnce(p) {
				continue
			}
			p.Sleep(fpindex.CompactEvery)
		}
	})
}

// FPIndexEnabled reports whether a fingerprint index fronts any pool.
func (c *Cluster) FPIndexEnabled() bool { return c.fpPool != 0 }

// fpLookup runs one charged index lookup under the "fpindex.lookup" span and
// the lookup-latency histogram: the one bracket fpProbe and FPLookup share.
func (c *Cluster) fpLookup(p *sim.Proc, pool *Pool, oid string, lookup func() bool) bool {
	start := p.Now()
	sp := c.sink.Start(p, "fpindex.lookup")
	if sp != nil {
		sp.SetOp(pool.Name, c.PGOf(pool, oid).String(), 0).SetClass(qos.Dedup.String())
	}
	res := lookup()
	sp.Finish(p)
	c.fpLookupLat.Add((p.Now() - start).Duration())
	return res
}

// fpProbe charges one fingerprint-index lookup at the OSD serving a
// metadata op on the indexed pool and cross-checks the index's verdict
// against the store.
func (g *Gateway) fpProbe(p *sim.Proc, pool *Pool, oid string, o *osd) {
	key := store.Key{Pool: pool.ID, OID: oid}
	if !o.indexed(key) {
		return
	}
	if !g.c.fpLookup(p, pool, oid, func() bool { return o.probe(p, key) }) {
		g.c.fpMismatch.Inc()
	}
}

// FPLookup probes the fingerprint index at the acting primary for oid —
// the experiment harness's direct latency probe, shaped like a client
// metadata round trip (request hop, op overhead, charged index lookup,
// response hop).
func (c *Cluster) FPLookup(p *sim.Proc, oid string) (bool, error) {
	pool := c.poolsByID[c.fpPool]
	if pool == nil {
		return false, fmt.Errorf("rados: fpindex not enabled")
	}
	acting := c.acting(pool, c.PGOf(pool, oid))
	if len(acting) == 0 {
		return false, ErrNoOSD
	}
	o := acting[0]
	if !o.alive || o.fpidx == nil {
		return false, ErrOSDDown
	}
	return c.fpLookup(p, pool, oid, func() bool {
		p.Sleep(c.cost.NetLatency)
		o.host.cpu.Use(p, c.cost.OpOverhead)
		found := o.fpidx.Lookup(p, oid)
		p.Sleep(c.cost.NetLatency)
		return found
	}), nil
}

// OSDIndexInfo is one OSD's fingerprint-index snapshot (dedupctl index).
type OSDIndexInfo struct {
	OSD   int
	Stats fpindex.Stats
}

// FPIndexPerOSD snapshots every OSD's index, ascending by OSD id.
func (c *Cluster) FPIndexPerOSD() []OSDIndexInfo {
	var out []OSDIndexInfo
	for _, o := range c.allOSDs() {
		if o.fpidx != nil {
			out = append(out, OSDIndexInfo{OSD: o.id, Stats: o.fpidx.Stats()})
		}
	}
	return out
}

// FPIndexStats aggregates fingerprint-index counters across all OSDs.
func (c *Cluster) FPIndexStats() fpindex.Stats {
	var total fpindex.Stats
	for _, info := range c.FPIndexPerOSD() {
		total.Add(info.Stats)
	}
	return total
}

// FPIndexVerify checks every live OSD's index against its store: the index's
// merged live key set must equal exactly the OSD's keys in the indexed pool.
// Returns nil when they agree (or the index is disabled) — the invariant that
// the flat map and the LSM index answer identically.
func (c *Cluster) FPIndexVerify() error {
	if c.fpPool == 0 {
		return nil
	}
	for _, o := range c.allOSDs() {
		if !o.alive || o.fpidx == nil {
			continue
		}
		want := make(map[string]bool)
		for _, key := range o.store.Keys() {
			if key.Pool == c.fpPool {
				want[key.OID] = true
			}
		}
		got := o.fpidx.Keys()
		if len(got) != len(want) {
			return fmt.Errorf("rados: fpindex: osd %d index holds %d keys, store holds %d", o.id, len(got), len(want))
		}
		for _, k := range got {
			if !want[k] {
				return fmt.Errorf("rados: fpindex: osd %d index key %q not in store", o.id, k)
			}
		}
	}
	if n := c.reg.Counter("fpindex_lookup_mismatch_total").Value(); n != 0 {
		return fmt.Errorf("rados: fpindex: %d lookup probes disagreed with the store", n)
	}
	return nil
}

// publishFPIndexMetrics exports fpindex_* into the registry (DumpMetrics).
func (c *Cluster) publishFPIndexMetrics() {
	if c.fpPool == 0 {
		return
	}
	s := c.FPIndexStats()
	c.setCounter("fpindex_lookups_total", s.Lookups)
	c.setCounter("fpindex_inserts_total", s.Inserts)
	c.setCounter("fpindex_deletes_total", s.Deletes)
	c.setCounter("fpindex_bloom_checks_total", s.BloomChecks)
	c.setCounter("fpindex_bloom_negatives_total", s.BloomNegatives)
	c.setCounter("fpindex_bloom_fp_total", s.BloomFalsePos)
	c.setCounter("fpindex_cache_hits_total", s.CacheHits)
	c.setCounter("fpindex_cache_misses_total", s.CacheMisses)
	c.setCounter("fpindex_flushes_total", s.Flushes)
	c.setCounter("fpindex_compactions_total", s.Compactions)
	c.setCounter("fpindex_compaction_bytes_total", s.CompactionBytes)
	c.setCounter("fpindex_read_bytes_total", s.ReadBytes)
	c.setCounter("fpindex_write_bytes_total", s.WriteBytes)
	c.setCounter("fpindex_wal_replayed_records_total", s.ReplayedRecs)
	c.reg.Gauge("fpindex_memtable_bytes").Set(s.MemtableBytes)
	c.reg.Gauge("fpindex_wal_bytes").Set(s.WALBytes)
	c.reg.Gauge("fpindex_table_bytes").Set(s.TableBytes)
	c.reg.Gauge("fpindex_tables").Set(int64(s.Tables))
	c.reg.Gauge("fpindex_levels").Set(int64(s.Levels))
	c.reg.Gauge("fpindex_entries").Set(s.Entries)
	c.reg.Gauge("fpindex_cache_bytes").Set(s.CacheBytes)
	c.reg.Gauge("fpindex_bloom_fp_observed_ppm").Set(int64(s.ObservedFP() * 1e6))
	c.reg.Gauge("fpindex_bloom_fp_estimated_ppm").Set(int64(s.EstimatedFP() * 1e6))
	c.reg.Gauge("fpindex_cache_hit_ppm").Set(int64(s.CacheHitRatio() * 1e6))
}
