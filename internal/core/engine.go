package core

import (
	"errors"
	"fmt"
	"time"

	"dedupstore/internal/hitset"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// EngineStats counts the background engine's work.
type EngineStats struct {
	ObjectsScanned int64
	ChunksFlushed  int64 // chunks that caused real chunk-pool I/O
	BytesFlushed   int64 // bytes shipped to the chunk pool
	DupChunks      int64 // flushed chunks that already existed in the chunk pool
	NoopFlushes    int64 // dirty slots whose content already matched their chunk (no chunk-pool I/O)
	SkippedHot     int64
	Requeued       int64 // flushes retried because a write raced
	RateAdjusts    int64 // dedup-class weight changes made by rate control
}

// Engine is the background post-processing deduplicator (§4.4.1): worker
// processes scan the per-PG dirty object ID lists, read dirty cached chunks
// from metadata objects, fingerprint them, move them to the chunk pool with
// reference counting, and update the chunk maps — all throttled by the
// watermark rate controller (§4.4.2), which retunes the dedup QoS class
// weight from the foreground load.
type Engine struct {
	s     *Store
	stats EngineStats

	started  bool
	stopReq  bool
	draining bool
	done     []*sim.Signal

	claimed map[string]bool // objects a worker is currently flushing
	pending []string        // dirty OIDs discovered by the last sweep
	inQueue map[string]bool // membership set for pending

	// Watermark rate-control state (ratepolicy.go).
	ratePolicyOn bool  // controller daemon is live
	rateBase     int64 // dedup-class weight to restore when unthrottled
}

func newEngine(s *Store) *Engine {
	return &Engine{s: s, claimed: make(map[string]bool), inQueue: make(map[string]bool)}
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// reg returns the cluster-wide metric registry; engine counters mirror into
// it so `dedupctl metrics` shows flush/GC/cache-agent activity.
func (e *Engine) reg() *metrics.Registry { return e.s.cluster.Metrics() }

// Start spawns the worker processes.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	eng := e.s.cluster.Engine()
	for i := 0; i < e.s.cfg.DedupThreads; i++ {
		e.done = append(e.done, eng.GoDaemon(fmt.Sprintf("dedup.worker%d", i), e.workerLoop))
	}
	e.startRatePolicy()
}

// RequestStop asks workers to exit after their current object.
func (e *Engine) RequestStop() { e.stopReq = true }

// Drain switches workers into drain mode: they keep flushing until every
// dirty list is empty, then exit (wait for that with WaitIdle). A drain is the
// foreground's own request and its caller has usually stopped writing, so the
// rate policy could only couple to the fading echo of a load that is gone (and
// gap/iops spacing lengthens as it fades): flushes run unpaced from here on and
// the policy is parked — class unthrottled, no rateTick — so a slot already
// asleep in WaitTurn leaves at its next re-check, at most one interval later.
func (e *Engine) Drain() {
	e.draining = true
	if e.ratePolicyOn {
		e.unthrottle()
		e.reg().Gauge("dedup_rate_policy_parked").Set(1)
	}
}

// WaitIdle blocks p until all workers have exited (use after Drain or
// RequestStop).
func (e *Engine) WaitIdle(p *sim.Proc) { sim.WaitAll(p, e.done...) }

// DrainAndWait flushes all outstanding dirty objects and stops the workers.
func (e *Engine) DrainAndWait(p *sim.Proc) {
	if !e.started {
		e.Start()
	}
	e.Drain()
	e.WaitIdle(p)
	e.started = false
	e.draining = false
	e.reg().Gauge("dedup_rate_policy_parked").Set(0)
	e.stopReq = false
	e.done = nil
}

func (e *Engine) workerLoop(p *sim.Proc) {
	s := e.s
	for !e.stopReq {
		oid, ok := e.nextDirty(p)
		if !ok {
			if e.draining && len(e.claimed) == 0 {
				return
			}
			p.Sleep(scanInterval)
			continue
		}
		gw, hostName, err := s.metaPrimaryGW(oid, qos.Dedup)
		if err != nil {
			continue
		}
		e.claimed[oid] = true
		_ = e.flushObject(p, gw, hostName, oid, false)
		delete(e.claimed, oid)
	}
}

// nextDirty returns the next unclaimed dirty object ID (§4.4.1 step 1).
// Workers share a pending queue refilled by sweeping every per-PG dirty
// list, so list scans amortize across many claims.
func (e *Engine) nextDirty(p *sim.Proc) (string, bool) {
	s := e.s
	for attempt := 0; attempt < 2; attempt++ {
		for len(e.pending) > 0 {
			oid := e.pending[0]
			e.pending = e.pending[1:]
			delete(e.inQueue, oid)
			if e.claimed[oid] {
				continue
			}
			// Hot objects stay on the dirty list for a later cycle (§3.2),
			// except during a drain, which force-flushes everything.
			if !e.draining && s.cache.SkipFlush(p.Now(), oid) {
				e.stats.SkippedHot++
				e.reg().Counter("dedup_skipped_hot_total").Inc()
				continue
			}
			return oid, true
		}
		if attempt > 0 {
			break
		}
		// Sweep all dirty lists to refill the queue.
		gw := s.hostGW(anyHost(s))
		for _, listOID := range s.dirtyListAll() {
			oids, err := gw.OmapList(p, s.meta, listOID, 64)
			if err != nil {
				continue
			}
			for _, oid := range oids {
				if !e.claimed[oid] && !e.inQueue[oid] {
					e.pending = append(e.pending, oid)
					e.inQueue[oid] = true
				}
			}
		}
	}
	return "", false
}

func anyHost(s *Store) string {
	hostName, err := s.cluster.PrimaryHost(s.meta, "sys.scan")
	if err != nil {
		panic("core: cluster has no OSDs")
	}
	return hostName
}

// flushObject deduplicates one metadata object (§4.4.1 steps 2–6). force
// (ModeFlushThrough) and an explicit drain are client-visible: both bypass
// rate control, which is decided here, once, for every flush path.
func (e *Engine) flushObject(p *sim.Proc, gw *rados.Gateway, hostName, oid string, force bool) error {
	s := e.s
	e.stats.ObjectsScanned++
	e.reg().Counter("dedup_objects_scanned_total").Inc()
	sp := s.cluster.Trace().Start(p, "dedup.flush").SetOp(s.meta.Name, "", 0)
	defer sp.Finish(p)

	// Claim: remove from the dirty list first; any racing client write
	// re-adds the object (its OmapSet is idempotent), so nothing is lost.
	if err := s.setDirty(p, gw, oid, false); err != nil {
		return err
	}
	cm, err := s.readChunkMap(p, gw, oid)
	switch {
	case errors.Is(err, ErrNotFound):
		return nil // deleted meanwhile
	case errors.Is(err, ErrCorruptMap):
		return err // scrub's finding; re-flushing cannot repair it
	case err != nil:
		// Claimed but unreachable: put it back rather than mistake a crash
		// window for deletion and lose the dirty entry.
		return e.requeueDirty(p, gw, oid)
	}
	flush := e.flushStatic
	if s.cfg.CDC != nil {
		flush = e.flushCDC
	}
	if requeue := flush(p, gw, hostName, oid, cm, !force && !e.draining); requeue {
		return e.requeueDirty(p, gw, oid)
	}
	return nil
}

// pace holds one paced flush slot to the dedup class's admission spacing — the
// only place a flush meets rate control (§4.4.2; check-seams) — and records
// the simulated time it waited.
func (e *Engine) pace(p *sim.Proc) {
	t0 := p.Now()
	e.s.cluster.QoS().WaitTurn(p, qos.Dedup)
	e.reg().Histogram("dedup_pacing_wait").Add((p.Now() - t0).Duration())
}

// flushStatic flushes the dirty fixed-size slots of one object as a single
// chunk-map transition. Prepare runs FlushParallel-wide, one slot at a time:
// a paced flush admits one chunk per WaitTurn — the spacing is set by the
// watermark policy, so the trickle tracks the measured foreground rate; an
// unpaced one (flush-through mode, explicit drains) is client-visible and
// never held back — then the slot is read, fingerprinted and, unless it
// already points at that chunk in that pool, given a put. Only when every slot
// is prepared does rebind pin the puts, so intent → bind stays one fan-out
// wave long however slowly the reads were paced. The one bind takes each slot
// whose Gen still matches and leaves the rest dirty. It reports whether the
// object must go back on the dirty list: a slot raced or failed, or the engine
// was asked to stop mid-pass.
func (e *Engine) flushStatic(p *sim.Proc, gw *rados.Gateway, hostName, oid string, cm *ChunkMap, paced bool) (requeue bool) {
	s := e.s
	type slot struct {
		entry Entry
		data  []byte
		id    string // fingerprint of data; "" while unprepared
		cold  bool
	}
	var slots []slot
	for _, i := range cm.DirtyEntries() {
		if entry := cm.Entries[i]; entry.Cached {
			slots = append(slots, slot{entry: entry})
		}
	}
	if len(slots) == 0 {
		return false
	}
	defer func() {
		for _, sl := range slots {
			if sl.data != nil {
				s.recycle(sl.data)
			}
		}
	}()
	prepared := 0
	fanOut(p, "flush", len(slots), s.cfg.FlushParallel, func(q *sim.Proc, i int) {
		if paced {
			e.pace(q)
			if e.stopReq {
				return
			}
		}
		sl := &slots[i]
		data, err := s.readPadded(q, gw, s.meta, oid, sl.entry.Start, sl.entry.Len())
		if err != nil {
			return
		}
		sl.data = data
		// Fingerprint: the content hash that doubles as the chunk-pool object ID.
		if s.cluster.UseHostCPU(q, hostName, s.cluster.Cost().Hash(len(data))) != nil {
			return
		}
		// Adaptive tiering: the flush lands the chunk in the pool the object's
		// temperature selects — cold objects erasure-code, everything else
		// replicates. With tiering off, cold is always false and the pool is the
		// single chunk pool, preserving the static design exactly.
		sl.cold = s.cfg.Tiering.Enabled && s.cache.Temp(q.Now(), oid) == hitset.TempCold
		sl.id = FingerprintID(data)
		prepared++
	})
	if prepared == 0 {
		return true // nothing to bind: every read failed, or the engine is stopping
	}
	// When a slot already points at the right chunk in the right pool (same
	// content rewritten) no chunk-pool I/O happens, so it gets no put and must
	// not count as a flush. A same-ID, different-pool slot is a real move: both
	// pools may hold a chunk under the same fingerprint while objects migrate.
	samePlace := func(sl *slot) bool { return sl.entry.ChunkID == sl.id && sl.entry.Cold == sl.cold }
	var puts []chunkPut
	for i := range slots {
		if sl := &slots[i]; sl.id != "" && !samePlace(sl) {
			puts = append(puts, chunkPut{pool: s.chunkPoolFor(sl.cold), id: sl.id, data: sl.data, off: sl.entry.Start})
		}
	}
	took, noops := 0, int64(0)
	bound, err := s.rebind(p, gw, oid, transition{
		puts: puts,
		bind: func(cur *ChunkMap, txn *store.Txn) (unbound []Entry, raced bool, err error) {
			took, noops = 0, 0
			keepCached := s.cache.KeepCachedAfterFlush(p.Now(), oid)
			for i := range slots {
				sl := &slots[i]
				j := cur.Find(sl.entry.Start)
				if sl.id == "" || j < 0 || cur.Entries[j].Gen != sl.entry.Gen {
					// Unprepared, deleted, or rewritten by a newer write: the slot
					// stays dirty for the next cycle and rebind aborts its intent.
					continue
				}
				took++
				if samePlace(sl) {
					noops++
				} else {
					unbound = append(unbound, sl.entry)
				}
				cs := &cur.Entries[j]
				cs.ChunkID, cs.Cold, cs.Dirty, cs.Cached = sl.id, sl.cold, false, keepCached
				if !keepCached {
					// Evict the flushed bytes from the metadata object (the object
					// may end with "no data but only metadata", Fig. 8 object 2).
					txn.Zero(cs.Start, cs.Len())
				}
			}
			return unbound, took == 0, nil
		},
	})
	if bound {
		e.stats.NoopFlushes += noops
		e.reg().Counter("dedup_noop_flushes_total").Add(noops)
		e.noteFlushed(puts)
	}
	return err != nil || took < len(slots)
}

// requeueDirty puts a claimed object back on its PG's dirty list. The write
// is retried through transient unavailability: losing it would strand dirty
// cached chunks that no future sweep ever revisits.
func (e *Engine) requeueDirty(p *sim.Proc, gw *rados.Gateway, oid string) error {
	e.stats.Requeued++
	e.reg().Counter("dedup_requeued_total").Inc()
	return retryUnavailable(p, func() error { return e.s.setDirty(p, gw, oid, true) })
}

// noteFlushed counts the puts a transition bound — the chunks that caused
// real chunk-pool I/O — and those the pool already held.
func (e *Engine) noteFlushed(puts []chunkPut) {
	var chunks, bytes, dups int64
	for _, put := range puts {
		if put.bound {
			chunks++
			bytes += int64(len(put.data))
			if put.existed {
				dups++
			}
		}
	}
	e.stats.ChunksFlushed += chunks
	e.stats.BytesFlushed += bytes
	e.stats.DupChunks += dups
	e.reg().Counter("dedup_chunks_flushed_total").Add(chunks)
	e.reg().Counter("dedup_bytes_flushed_total").Add(bytes)
	e.reg().Counter("dedup_dup_chunks_total").Add(dups)
}

// EvictStats reports one cold-eviction pass.
type EvictStats struct {
	ObjectsScanned int64
	ChunksEvicted  int64
	BytesEvicted   int64
	SkippedHot     int64
}

// EvictCold is the cache agent's demotion pass (§4.3): clean, flushed
// chunks still cached in metadata objects are evicted when their object has
// gone cold, reclaiming metadata-pool space. (Flush handles dirty chunks;
// this handles chunks kept cached because the object was hot at flush
// time.)
func (e *Engine) EvictCold(p *sim.Proc) EvictStats {
	s := e.s
	var stats EvictStats
	gw := s.hostGW(anyHost(s))
	for _, oid := range s.cluster.ListObjects(s.meta) {
		if IsSystemObject(oid) {
			continue
		}
		stats.ObjectsScanned++
		if s.cache.Hot(p.Now(), oid) {
			stats.SkippedHot++
			continue
		}
		// Best-effort: an object this pass cannot reach (or that a delete
		// raced) is left for the next pass, so the error is dropped.
		chunks, bytes, _ := s.evictCached(p, gw, oid)
		stats.ChunksEvicted += chunks
		stats.BytesEvicted += bytes
	}
	reg := e.reg()
	reg.Counter("cache_agent_passes_total").Inc()
	reg.Counter("cache_agent_chunks_evicted_total").Add(stats.ChunksEvicted)
	reg.Counter("cache_agent_bytes_evicted_total").Add(stats.BytesEvicted)
	reg.Counter("cache_agent_skipped_hot_total").Add(stats.SkippedHot)
	return stats
}

// StartCacheAgent spawns a background demotion daemon that periodically
// evicts cold cached chunks (the flush/evict agent role of Ceph's cache
// tiering). It runs until RequestStop.
func (e *Engine) StartCacheAgent(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	e.s.cluster.Engine().GoDaemon("dedup.cache-agent", func(p *sim.Proc) {
		for !e.stopReq {
			p.Sleep(interval)
			if e.stopReq {
				return
			}
			e.EvictCold(p)
		}
	})
}

// evictCached drops the cached copy of every clean, bound slot of a metadata
// object (the bytes live on in the chunk pool) and reports what it evicted: a
// transition with nothing to pin or release, raced when nothing is evictable.
func (s *Store) evictCached(p *sim.Proc, gw *rados.Gateway, oid string) (chunks, bytes int64, err error) {
	_, err = s.rebind(p, gw, oid, transition{bind: func(cm *ChunkMap, txn *store.Txn) ([]Entry, bool, error) {
		chunks, bytes = 0, 0
		for i, e := range cm.Entries {
			if e.Dirty || !e.Cached || e.ChunkID == "" {
				continue
			}
			cm.Entries[i].Cached = false
			txn.Zero(e.Start, e.Len())
			chunks++
			bytes += e.Len()
		}
		return nil, chunks == 0, nil
	}})
	return chunks, bytes, err
}
