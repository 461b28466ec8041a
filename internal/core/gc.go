package core

import (
	"errors"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Garbage collection for the false-positive reference-count mode (§4.6):
// when decrements are lock-free a chunk's reference table may hold stale
// entries, so chunks are never deleted inline; the collector periodically
// verifies each chunk's back references against the owning chunk maps and
// deletes chunks with none left. This is the "additional garbage collection
// process" the paper notes the technique requires.
//
// The pass also reconciles the two-phase reference protocol (refcount.go):
// expired intents are promoted to committed references when the source chunk
// map still binds the chunk, aborted otherwise.
//
// Every verification happens outside the chunk's PG lock (liveness checks
// read a different pool), so the sweep re-reads the chunk object's version
// under the lock and skips the chunk if any mutation landed since the mark —
// replaying a stale decision could otherwise remove a key a racing incref
// just re-added. A version never repeats, so a chunk deleted and re-created
// in between is caught too.

// GCStats reports one collection pass.
type GCStats struct {
	ChunksScanned   int64
	RefsChecked     int64
	StaleRefs       int64
	ChunksDeleted   int64
	BytesReclaimed  int64
	IntentsPromoted int64 // expired intents with a live binding → committed
	IntentsAborted  int64 // expired intents with no binding → removed
	RacedSkips      int64 // chunks skipped: a ref mutation raced verification
	BadRefKeys      int64 // unparseable ref/intent keys removed
}

// chunkSnapshot is what one under-lock read of a chunk object observed.
type chunkSnapshot struct {
	exists  bool
	version uint64 // the chunk object's version (rados.View.Version)
	refTable
	expiry []sim.Time // each intent's lease expiry (0 if garbled)
}

// snapshotChunk reads a chunk's reference state atomically under its PG
// lock via a nil-txn mutate.
func snapshotChunk(p *sim.Proc, gw *rados.Gateway, pool *rados.Pool, oid string, snap *chunkSnapshot) error {
	return retryUnavailable(p, func() error {
		*snap = chunkSnapshot{}
		return gw.Mutate(p, pool, oid, func(v rados.View) (*store.Txn, error) {
			if !v.Exists() {
				return nil, nil
			}
			snap.exists, snap.version = true, v.Version()
			var err error
			if snap.refTable, err = chunkRefs(v); err != nil {
				return nil, err
			}
			snap.expiry = make([]sim.Time, len(snap.intents))
			for i, r := range snap.intents {
				if raw, err := v.OmapGet(r.key); err == nil {
					snap.expiry[i], _ = decodeExpiry(raw)
				}
			}
			return nil, nil
		})
	})
}

// gcDecision is the plan computed outside the PG lock for one chunk.
type gcDecision struct {
	staleRefs  []string // committed ref keys whose binding is gone
	badKeys    []string // unparseable ref/intent keys (no flush produces them)
	promote    []string // expired intent keys whose binding is live
	abort      []string // expired intent keys whose binding is gone
	liveRefs   int
	keepintent int // intents left alone (unexpired, or source unreachable)
}

func (d *gcDecision) empty() bool {
	return len(d.staleRefs) == 0 && len(d.badKeys) == 0 &&
		len(d.promote) == 0 && len(d.abort) == 0
}

// GC runs one mark-and-sweep pass over the chunk pool. It is safe to run
// concurrently with foreground I/O: the sweep compares the chunk's version
// under its PG lock and skips the chunk when a racing mutation invalidated
// the verification.
func (s *Store) GC(p *sim.Proc) (GCStats, error) {
	var stats GCStats
	reg := s.cluster.Metrics()
	defer func() {
		reg.Counter("dedup_gc_passes_total").Inc()
		reg.Counter("dedup_gc_chunks_scanned_total").Add(stats.ChunksScanned)
		reg.Counter("dedup_gc_refs_checked_total").Add(stats.RefsChecked)
		reg.Counter("dedup_gc_stale_refs_total").Add(stats.StaleRefs)
		reg.Counter("dedup_gc_chunks_deleted_total").Add(stats.ChunksDeleted)
		reg.Counter("dedup_gc_bytes_reclaimed_total").Add(stats.BytesReclaimed)
		reg.Counter("dedup_gc_intents_promoted_total").Add(stats.IntentsPromoted)
		reg.Counter("dedup_gc_intents_aborted_total").Add(stats.IntentsAborted)
		reg.Counter("dedup_gc_raced_skips_total").Add(stats.RacedSkips)
	}()
	sp := s.cluster.Trace().StartLabel(p, spanGC).SetClass(qos.GC.Label())
	defer sp.Finish(p)
	gw := s.hostGWClass(anyHost(s), qos.GC)
	err := s.eachChunk(func(cpool *rados.Pool, chunkOID string) error {
		return s.gcChunk(p, gw, cpool, chunkOID, &stats)
	})
	return stats, err
}

// gcChunk runs the mark-and-sweep on one chunk object of cpool. With tiering
// on, the same fingerprint may exist in both the warm and the cold pool while
// objects migrate; liveness is therefore judged per (chunk, pool) — a binding
// keeps a chunk alive only in the pool its Cold bit selects.
func (s *Store) gcChunk(p *sim.Proc, gw *rados.Gateway, cpool *rados.Pool, chunkOID string, stats *GCStats) error {
	stats.ChunksScanned++

	// Mark: snapshot the reference state under the PG lock, then verify each
	// reference/intent against the (other-pool) chunk maps outside the lock.
	var snap chunkSnapshot
	if err := snapshotChunk(p, gw, cpool, chunkOID, &snap); err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		return err
	}
	if !snap.exists {
		return nil
	}
	dec := gcDecision{badKeys: snap.bad}
	for _, r := range snap.refs {
		stats.RefsChecked++
		// An unreachable source counts as live: never reclaim blind.
		if live, reachable := s.refLiveness(p, gw, r.ref, cpool, chunkOID); live || !reachable {
			dec.liveRefs++
		} else {
			dec.staleRefs = append(dec.staleRefs, r.key)
		}
	}
	for i, r := range snap.intents {
		if snap.expiry[i] > p.Now() {
			dec.keepintent++ // lease still running: the flush owns it
			continue
		}
		live, reachable := s.refLiveness(p, gw, r.ref, cpool, chunkOID)
		switch {
		case !reachable:
			dec.keepintent++ // verify next pass, never reconcile blind
		case live:
			dec.promote = append(dec.promote, r.key)
		default:
			dec.abort = append(dec.abort, r.key)
		}
	}
	canDelete := dec.liveRefs == 0 && dec.keepintent == 0 && len(dec.promote) == 0
	if dec.empty() && !canDelete {
		return nil
	}

	if p.Point(atBeforeSweep, chunkOID) {
		return errCrash
	}

	// Sweep: replay the decision under the PG lock, but only if no mutation
	// raced the verification (version compare).
	raced := false
	deleted := false
	var reclaimed int64
	err := retryUnavailable(p, func() error {
		raced, deleted, reclaimed = false, false, 0
		return gw.Mutate(p, cpool, chunkOID, func(v rados.View) (*store.Txn, error) {
			if !v.Exists() {
				return nil, nil
			}
			if v.Version() != snap.version {
				raced = true
				return nil, nil
			}
			drop := make(map[string]bool, len(dec.staleRefs)+len(dec.abort))
			for _, k := range dec.staleRefs {
				drop[k] = true
			}
			for _, k := range dec.abort {
				drop[k] = true
			}
			promote := make(map[string]bool, len(dec.promote))
			for _, k := range dec.promote {
				promote[k] = true
			}
			// The version proves the table is the one the mark read. Intents
			// first: that is the table's sorted order ("int." < "ref.").
			txn := store.NewTxn()
			for _, k := range dec.badKeys {
				txn.OmapRm(k)
			}
			remainRefs, remainIntents := 0, 0
			for _, r := range snap.intents {
				switch {
				case drop[r.key]:
					txn.OmapRm(r.key)
				case promote[r.key]:
					txn.OmapRm(r.key).OmapSet(r.ref.Key(), nil)
					remainRefs++
				default:
					remainIntents++
				}
			}
			for _, r := range snap.refs {
				if drop[r.key] {
					txn.OmapRm(r.key)
				} else {
					remainRefs++
				}
			}
			if remainRefs == 0 && remainIntents == 0 {
				deleted = true
				reclaimed = v.Size()
				return store.NewTxn().Delete(), nil
			}
			return txn, nil
		})
	})
	if err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	if raced {
		stats.RacedSkips++
		return nil
	}
	stats.StaleRefs += int64(len(dec.staleRefs))
	stats.BadRefKeys += int64(len(dec.badKeys))
	stats.IntentsPromoted += int64(len(dec.promote))
	stats.IntentsAborted += int64(len(dec.abort))
	if deleted {
		s.names.forget(chunkOID)
		stats.ChunksDeleted++
		stats.BytesReclaimed += reclaimed
	}
	return nil
}

// refLiveness checks whether the source chunk map binds ref.Offset to this
// chunk in this pool. reachable=false means the source PG could not be
// consulted (e.g. a crash window longer than the retry budget): the caller
// must keep the reference — treating "unreachable" as "gone" would delete a
// chunk live data points at.
func (s *Store) refLiveness(p *sim.Proc, gw *rados.Gateway, ref Ref, cpool *rados.Pool, chunkOID string) (live, reachable bool) {
	if ref.Pool != s.meta.ID {
		return false, true
	}
	cm, err := s.readChunkMap(p, gw, ref.OID)
	if rados.IsUnavailable(err) {
		return false, false
	}
	if err != nil {
		return false, true // source object gone (or its map unreadable)
	}
	i := cm.Find(ref.Offset)
	if i < 0 {
		return false, true
	}
	e := cm.Entries[i]
	// A dirty slot may still be mid-flush toward this chunk — in either
	// pool, since the flush's pool choice depends on the object's current
	// temperature; keep the ref conservatively (false positives delay
	// reclamation, never corrupt). A clean binding keeps the chunk alive
	// only in the pool its Cold bit selects: during a migration the same
	// fingerprint exists in both pools, and the copy the binding moved away
	// from must be collectable.
	if e.Dirty {
		return true, true
	}
	return s.binds(e, cpool, chunkOID), true
}

// binds reports whether entry e binds its offset to chunk id in pool: how
// rebind reads a put's fate off the map it wrote and how GC judges a reference.
func (s *Store) binds(e Entry, pool *rados.Pool, id string) bool {
	return e.ChunkID == id && s.chunkPoolFor(e.Cold) == pool
}
