package core

import (
	"errors"
	"sort"

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
	refs    []string
	intents map[string]sim.Time // intent key → lease expiry (0 if garbled)
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
			t, err := chunkRefs(v)
			if err != nil {
				return nil, err
			}
			snap.refs = t.refs
			snap.intents = make(map[string]sim.Time, len(t.intents))
			for _, k := range t.intents {
				var exp sim.Time
				if raw, err := v.OmapGet(k); err == nil {
					exp, _ = decodeExpiry(raw)
				}
				snap.intents[k] = exp
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

// sortedKeys returns the map's keys in sorted order — intent handling must
// not depend on Go's randomized map iteration (determinism gate).
func sortedKeys(m map[string]sim.Time) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
	for _, cpool := range s.chunkPools() {
		if err := s.gcPool(p, gw, cpool, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// gcPool runs the mark-and-sweep over one chunk pool. With tiering on, the
// same fingerprint may exist in both the warm and the cold pool while
// objects migrate; liveness is therefore judged per (chunk, pool) — a
// binding keeps a chunk alive only in the pool its Cold bit selects.
func (s *Store) gcPool(p *sim.Proc, gw *rados.Gateway, cpool *rados.Pool, stats *GCStats) error {
	for _, chunkOID := range s.cluster.ListObjects(cpool) {
		stats.ChunksScanned++

		// Mark: snapshot the reference state under the PG lock, then verify
		// each reference/intent against the (other-pool) chunk maps outside
		// the lock.
		var snap chunkSnapshot
		if err := snapshotChunk(p, gw, cpool, chunkOID, &snap); err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return err
		}
		if !snap.exists {
			continue
		}
		var dec gcDecision
		for _, key := range snap.refs {
			ref, ok := parseRefKey(key)
			if !ok {
				dec.badKeys = append(dec.badKeys, key)
				continue
			}
			stats.RefsChecked++
			if s.refIsLive(p, gw, ref, cpool, chunkOID) {
				dec.liveRefs++
			} else {
				dec.staleRefs = append(dec.staleRefs, key)
			}
		}
		for _, key := range sortedKeys(snap.intents) {
			ref, ok := parseIntentKey(key)
			if !ok {
				dec.badKeys = append(dec.badKeys, key)
				continue
			}
			if snap.intents[key] > p.Now() {
				dec.keepintent++ // lease still running: the flush owns it
				continue
			}
			live, reachable := s.refLiveness(p, gw, ref, cpool, chunkOID)
			switch {
			case !reachable:
				dec.keepintent++ // verify next pass, never reconcile blind
			case live:
				dec.promote = append(dec.promote, key)
			default:
				dec.abort = append(dec.abort, key)
			}
		}
		canDelete := dec.liveRefs == 0 && dec.keepintent == 0 && len(dec.promote) == 0
		if dec.empty() && !canDelete {
			continue
		}

		if p.Point(atBeforeSweep, chunkOID) {
			return errCrash
		}

		// Sweep: replay the decision under the PG lock, but only if no
		// mutation raced the verification (version compare).
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
				drop := make(map[string]bool, len(dec.staleRefs)+len(dec.badKeys)+len(dec.abort))
				for _, k := range dec.staleRefs {
					drop[k] = true
				}
				for _, k := range dec.badKeys {
					drop[k] = true
				}
				for _, k := range dec.abort {
					drop[k] = true
				}
				promote := make(map[string]bool, len(dec.promote))
				for _, k := range dec.promote {
					promote[k] = true
				}
				txn := store.NewTxn()
				t, err := chunkRefs(v)
				if err != nil {
					return nil, err
				}
				// Intents first: that is the table's sorted order ("int." < "ref.").
				remainRefs, remainIntents := 0, 0
				for _, k := range t.intents {
					switch {
					case drop[k]:
						txn.OmapRm(k)
					case promote[k]:
						txn.OmapRm(k)
						if ref, ok := parseIntentKey(k); ok {
							txn.OmapSet(ref.Key(), nil)
							remainRefs++
						}
					default:
						remainIntents++
					}
				}
				for _, k := range t.refs {
					if drop[k] {
						txn.OmapRm(k)
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
			continue
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
	}
	return nil
}

// refIsLive verifies a back reference: the source metadata object's chunk
// map must still bind that offset to this chunk in this pool. Unreachable
// sources count as live (conservative).
func (s *Store) refIsLive(p *sim.Proc, gw *rados.Gateway, ref Ref, cpool *rados.Pool, chunkOID string) bool {
	live, reachable := s.refLiveness(p, gw, ref, cpool, chunkOID)
	return live || !reachable
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
