package core

import (
	"errors"
	"fmt"

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
	BytesFlushed   int64 // bytes of the chunks flushes bound in the chunk pool
	BytesShipped   int64 // of those, bytes sent to the chunk pool: their probe missed
	DupChunks      int64 // flushed chunks that already existed in the chunk pool
	NoopFlushes    int64 // dirty slots whose content already matched their chunk (no chunk-pool I/O)
	SkippedHot     int64 // claims a worker passed over because the object was hot
	Requeued       int64 // flushes retried because a write raced
	RateAdjusts    int64 // dedup-class weight changes made by rate control
}

// Engine is the background post-processing deduplicator (§4.4.1): worker
// processes scan the per-PG dirty object ID lists, read dirty cached chunks
// from metadata objects, fingerprint them, move them to the chunk pool with
// reference counting, and update the chunk maps — all throttled by the
// watermark rate controller (§4.4.2), which retunes the dedup QoS class
// weight from the foreground load. An explicit drain (DrainAndWait) stops the
// workers and flushes unpaced, one agent per OSD over the PGs it leads.
type Engine struct {
	s     *Store
	stats EngineStats

	workers []sim.Loop // one per DedupThreads; DrainAndWait stops them

	claimed map[string]bool // objects a worker or drain agent is currently flushing
	pending []string        // dirty OIDs discovered by the last sweep
	inQueue map[string]bool // membership set for pending

	// Watermark rate-control state (ratepolicy.go).
	rate     sim.Loop
	rateBase int64 // dedup-class weight to restore when unthrottled

	// Stats' SkippedHot and RateAdjusts, resolved at their first count: a
	// lookup creates the registry entry, which a run that never counts lacks.
	skippedHot, rateAdjusts *metrics.Counter
}

func newEngine(s *Store) *Engine {
	e := &Engine{s: s, claimed: make(map[string]bool), inQueue: make(map[string]bool)}
	e.workers = make([]sim.Loop, s.cfg.DedupThreads)
	for i := range e.workers {
		e.workers[i] = sim.Loop{Name: fmt.Sprintf("dedup.worker%d", i), Every: scanInterval, Tick: e.workerTick}
	}
	e.rate = sim.Loop{Name: "dedup.rate-policy", Every: ratePolicyTick, Exit: e.unthrottle,
		Tick: func(*sim.Proc) bool { e.rateTick(); return false }}
	return e
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats {
	st := e.stats
	st.SkippedHot, st.RateAdjusts = e.skippedHot.Value(), e.rateAdjusts.Value()
	return st
}

// count adds one to *c, resolving it as name at its first count.
func (e *Engine) count(c **metrics.Counter, name string) {
	if *c == nil {
		*c = e.reg().Counter(name)
	}
	(*c).Inc()
}

// reg returns the cluster-wide metric registry; engine counters mirror into
// it so `dedupctl metrics` shows flush/GC/eviction activity.
func (e *Engine) reg() *metrics.Registry { return e.s.cluster.Metrics() }

// Start starts the worker loops and the rate controller (DESIGN.md §9).
func (e *Engine) Start() {
	for i := range e.workers {
		e.workers[i].Start(e.s.cluster.Engine())
	}
	e.startRatePolicy()
}

// DrainAndWait stops the workers and flushes every dirty object before it
// returns. It is the foreground's own request, whose load has usually
// stopped, so it runs unpaced and parks the rate policy at once: a slot
// asleep in WaitTurn leaves at its next re-check. Its width comes from the
// map, not from DedupThreads: one agent per OSD over the PGs it leads
// (§4.4.1, Fig. 8), in rounds until one finds nothing, which also catches a
// PG whose primary moved and an object a failed flush put back.
func (e *Engine) DrainAndWait(p *sim.Proc) {
	t0 := p.Now()
	// The workers finish their current object and exit; the rate controller
	// exits at its next wake-up (DESIGN.md §9).
	var workers []*sim.Signal
	for i := range e.workers {
		if done := e.workers[i].Stop(); done != nil {
			workers = append(workers, done)
		}
	}
	if e.rate.Stop() != nil {
		e.unthrottle()
		e.reg().Gauge("dedup_rate_policy_parked").Set(1)
	}
	osds := e.s.cluster.OSDs()
	e.reg().Gauge("dedup_drain_agents").Set(int64(len(osds)))
	// The first round overlaps the exiting workers; a clean round counts only
	// once none is left to put an object back.
	for e.drainRound(p, osds) > 0 || len(workers) > 0 {
		sim.WaitAll(p, workers...)
		workers = nil
	}
	e.pending = e.pending[:0] // flushed: a restarted worker must not revisit them
	clear(e.inQueue)
	e.reg().Gauge("dedup_rate_policy_parked").Set(0)
	e.reg().Histogram("dedup_drain_seconds").Add((p.Now() - t0).Duration())
}

// drainRound runs one drain agent per OSD as a child of p. An agent lists the
// dirty lists of the PGs whose acting primary is its OSD and flushes that
// queue from the front, one unclaimed object at a time, unpaced. Once its own
// queue is empty it takes the last object of the longest queue among agents
// that have finished listing, so a backlog skewed onto one primary still
// drains at cluster width; it stops when every agent has listed and no queue
// holds work. It reports how many objects the agents flushed.
func (e *Engine) drainRound(p *sim.Proc, osds []int) (flushed int) {
	s := e.s
	queues := make([][]string, len(osds)) // each set once its agent has listed
	listing, lister := len(osds), sim.NewCond()
	fanOut(p, "dedup.drain", len(osds), len(osds), func(q *sim.Proc, i int) {
		var own []string
		for seq := uint32(0); seq < s.meta.PGNum; seq++ {
			id, primaryHost, err := s.cluster.PGPrimary(s.meta, seq)
			if err != nil || id != osds[i] {
				continue
			}
			if oids, err := s.hostGW(primaryHost).OmapList(q, s.meta, dirtyListName(seq), 64); err == nil {
				own = append(own, oids...)
			}
		}
		queues[i] = own
		listing--
		lister.Broadcast(q)
		for {
			var oid string
			shared := false
			if len(queues[i]) > 0 {
				oid, queues[i] = queues[i][0], queues[i][1:]
			} else if j := longest(queues); j >= 0 {
				last := len(queues[j]) - 1
				oid, queues[j], shared = queues[j][last], queues[j][:last], true
			} else if listing > 0 {
				// Idle, not a barrier: a slower lister may yet publish work.
				lister.Wait(q)
				continue
			} else {
				return
			}
			if e.claimed[oid] {
				continue
			}
			if shared {
				e.reg().Counter("dedup_drain_shared_total").Inc()
			}
			flushed++
			e.flushClaimed(q, oid, true)
		}
	})
	return flushed
}

// longest returns the index of the longest non-empty queue, or -1 if none
// holds work.
func longest(queues [][]string) int {
	best := -1
	for j, q := range queues {
		if len(q) > 0 && (best < 0 || len(q) > len(queues[best])) {
			best = j
		}
	}
	return best
}

// workerTick flushes the next unclaimed dirty object, reporting whether there
// was one: an idle worker sleeps scanInterval before it sweeps again.
func (e *Engine) workerTick(p *sim.Proc) bool {
	oid, ok := e.nextDirty(p)
	if ok {
		e.flushClaimed(p, oid, false)
	}
	return ok
}

// flushClaimed flushes oid at its metadata primary, claimed so that no other
// worker or drain agent flushes it meanwhile.
func (e *Engine) flushClaimed(p *sim.Proc, oid string, force bool) {
	gw, hostName, err := e.s.metaPrimaryGW(oid, qos.Dedup)
	if err != nil {
		return
	}
	e.claimed[oid] = true
	_ = e.flushObject(p, gw, hostName, oid, force)
	delete(e.claimed, oid)
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
			// Hot objects stay on the dirty list for a later cycle (§3.2); a
			// drain's agents force-flush everything.
			if s.cache.SkipFlush(p.Now(), oid) {
				e.count(&e.skippedHot, "dedup_skipped_hot_total")
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

// The flush's and the maintenance passes' span names, resolved once.
var (
	spanFlush = sim.Intern("dedup.flush")
	spanGC    = sim.Intern("dedup.gc")
	spanScrub = sim.Intern("dedup.scrub")
	spanAudit = sim.Intern("dedup.audit")
)

// flushObject deduplicates one metadata object (§4.4.1 steps 2–6). force
// (ModeFlushThrough and an explicit drain's agents) is client-visible and
// bypasses rate control, which is decided here, once, for every flush path.
func (e *Engine) flushObject(p *sim.Proc, gw *rados.Gateway, hostName, oid string, force bool) error {
	s := e.s
	e.stats.ObjectsScanned++
	e.reg().Counter("dedup_objects_scanned_total").Inc()
	sp := s.cluster.Trace().StartLabel(p, spanFlush).SetOp(s.meta.Label(), 0, 0)
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
	if requeue := flush(p, gw, hostName, oid, cm, !force); requeue {
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
// object must go back on the dirty list: a slot raced or failed.
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
		sl.id = s.nameAs(data, sl.entry.ChunkID)
		prepared++
	})
	if prepared == 0 {
		return true // nothing to bind: every read failed
	}
	// When a slot already points at the right chunk in the right pool (same
	// content rewritten) no chunk-pool I/O happens, so it gets no put and must
	// not count as a flush. A same-ID, different-pool slot is a real move: both
	// pools may hold a chunk under the same fingerprint while objects migrate.
	samePlace := func(sl *slot) bool { return sl.entry.ChunkID == sl.id && sl.entry.Cold == sl.cold }
	var puts []chunkPut
	for i := range slots {
		if sl := &slots[i]; sl.id != "" && !samePlace(sl) {
			puts = append(puts, chunkPut{pool: s.chunkPoolFor(sl.cold), id: sl.id, data: sl.data, off: sl.entry.Start, named: true})
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

// requeueDirty puts a claimed object back on its PG's dirty list.
func (e *Engine) requeueDirty(p *sim.Proc, gw *rados.Gateway, oid string) error {
	e.stats.Requeued++
	e.reg().Counter("dedup_requeued_total").Inc()
	return e.s.setDirty(p, gw, oid, true)
}

// noteFlushed counts the puts a transition bound — the chunks that caused
// real chunk-pool I/O — those the pool already held, and the bytes of those
// whose data travelled.
func (e *Engine) noteFlushed(puts []chunkPut) {
	var chunks, bytes, shipped, dups int64
	for _, put := range puts {
		if put.bound {
			chunks++
			bytes += int64(len(put.data))
			if put.shipped {
				shipped += int64(len(put.data))
			}
			if put.existed {
				dups++
			}
		}
	}
	e.stats.ChunksFlushed += chunks
	e.stats.BytesFlushed += bytes
	e.stats.BytesShipped += shipped
	e.stats.DupChunks += dups
	e.reg().Counter("dedup_chunks_flushed_total").Add(chunks)
	e.reg().Counter("dedup_bytes_flushed_total").Add(bytes)
	e.reg().Counter("dedup_chunk_bytes_shipped_total").Add(shipped)
	e.reg().Counter("dedup_dup_chunks_total").Add(dups)
}

// EvictStats reports one cold-eviction pass.
type EvictStats struct {
	ObjectsScanned int64
	ChunksEvicted  int64
	BytesEvicted   int64
	SkippedHot     int64
}

// EvictCold is one cache-tier demotion pass (§4.3): clean, flushed
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
