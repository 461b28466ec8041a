package core

import (
	"fmt"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Migration executors: the I/O half of adaptive redundancy. Each executor
// advances one object a single step toward its target form; the policy
// daemon re-walks objects every pass, so multi-step transitions converge
// across passes. Every step that moves a reference is a rebind transition
// (refcount.go), so a crash anywhere mid-migration leaves only state GC and
// the audit pass already know how to reconcile — no new crash windows.

// recacheObject promotes an object to its hot form: every clean bound
// slot's bytes are read back into the metadata object and the binding is
// dropped (ChunkID=""), a transition with nothing to pin. Slots that still
// hold a cached copy (flushed while hot) skip the read — only the binding
// changes.
func (s *Store) recacheObject(p *sim.Proc, gw *rados.Gateway, oid string, cm *ChunkMap, ps *TierStats) error {
	// Read the chunk bytes of every uncached bound slot first, outside the
	// metadata object's PG lock.
	fills := make(map[int64][]byte)
	defer func() {
		for _, data := range fills {
			s.recycle(data)
		}
	}()
	payload := 0
	for _, e := range cm.Entries {
		if e.Dirty || e.ChunkID == "" || e.Cached {
			continue
		}
		s.cluster.QoS().WaitTurn(p, qos.Tiering)
		data, err := s.readPadded(p, gw, s.chunkPoolFor(e.Cold), e.ChunkID, 0, e.Len())
		if err != nil {
			return fmt.Errorf("core: recache read chunk %s: %w", e.ChunkID, err)
		}
		fills[e.Start] = data
		payload += len(data)
	}

	// Swap every binding in one transaction, re-checking each slot under the
	// PG lock: a slot that is no longer exactly as planned (newer write, new
	// binding, evicted, or gone) is skipped and left to the engine. Only the
	// bindings actually swapped are released — filled slots first, then those
	// whose bytes were already in place.
	bound, err := s.rebind(p, gw, oid, transition{
		payload: payload,
		bind: func(cur *ChunkMap, txn *store.Txn) ([]Entry, bool, error) {
			var swapped []Entry
			for _, cached := range []bool{false, true} {
				for _, e := range cm.Entries {
					if e.Dirty || e.ChunkID == "" || e.Cached != cached {
						continue
					}
					i := cur.Find(e.Start)
					if i < 0 || cur.Entries[i] != e {
						ps.RacedSkips++
						continue
					}
					cs := &cur.Entries[i]
					if !cached {
						txn.Write(e.Start, fills[e.Start])
						cs.Cached = true
						ps.RecachedBytes += e.Len()
					}
					cs.ChunkID, cs.Cold = "", false
					cs.Gen++
					swapped = append(swapped, e)
				}
			}
			return swapped, len(swapped) == 0, nil
		},
	})
	if bound {
		ps.Recaches++
	}
	return err
}

// rededupObject demotes a hot-form object: clean cached-only slots are
// marked dirty again (keeping the cached bytes — they are the data) and the
// object goes back on the dirty list, so the ordinary flush engine
// re-deduplicates it, landing chunks in the pool its current temperature
// selects: a transition with nothing to pin or release, raced when no slot
// qualifies. No references move here, so there is nothing to crash.
func (s *Store) rededupObject(p *sim.Proc, gw *rados.Gateway, oid string, ps *TierStats) error {
	marked, err := s.rebind(p, gw, oid, transition{bind: func(cur *ChunkMap, _ *store.Txn) ([]Entry, bool, error) {
		none := true
		for i, e := range cur.Entries {
			if e.Dirty || !e.Cached || e.ChunkID != "" {
				continue
			}
			cur.Entries[i].Dirty = true
			cur.Entries[i].Gen++
			none = false
		}
		return nil, none, nil
	}})
	if err != nil || !marked {
		return err
	}
	ps.Rededups++
	return retryUnavailable(p, func() error { return s.setDirty(p, gw, oid, true) })
}

// evictObject drops the hot-time cached copies of an already-deduplicated
// object (clean, bound, cached slots), reclaiming metadata-pool space — the
// per-object form of the cache agent's EvictCold pass.
func (s *Store) evictObject(p *sim.Proc, gw *rados.Gateway, oid string, ps *TierStats) error {
	chunks, _, err := s.evictCached(p, gw, oid)
	if err != nil || chunks == 0 {
		return err
	}
	ps.Evicts++
	ps.EvictedChunks += chunks
	return nil
}

// migrateObjectChunks moves an object's clean, uncached chunk bindings into
// the toCold pool, one chunk at a time.
func (s *Store) migrateObjectChunks(p *sim.Proc, gw *rados.Gateway, oid string, cm *ChunkMap, toCold bool, ps *TierStats) error {
	for _, e := range cm.Entries {
		if e.Dirty || e.Cached || e.ChunkID == "" || e.Cold == toCold {
			continue
		}
		s.cluster.QoS().WaitTurn(p, qos.Tiering)
		bound, err := s.migrateChunk(p, gw, oid, e, toCold)
		if err != nil {
			return err
		}
		if !bound {
			ps.RacedSkips++
			continue
		}
		if toCold {
			ps.DemotedChunks++
		} else {
			ps.PromotedChunks++
		}
		ps.MigratedBytes += e.Len()
	}
	return nil
}

// migrateChunk moves one binding between chunk pools: pin the chunk in the
// destination pool (creating it from the source copy if absent), flip the
// binding's Cold bit unless the slot changed, release the source pool's
// chunk. The same fingerprint may transiently exist in both pools — each
// pool's copy has its own reference table, and refLiveness judges each
// against the Cold bit. bound=false with a nil error means the slot raced.
func (s *Store) migrateChunk(p *sim.Proc, gw *rados.Gateway, oid string, entry Entry, toCold bool) (bound bool, err error) {
	data, err := s.readPadded(p, gw, s.chunkPoolFor(entry.Cold), entry.ChunkID, 0, entry.Len())
	if err != nil {
		return false, err
	}
	defer s.recycle(data)
	return s.rebind(p, gw, oid, transition{
		puts: []chunkPut{{pool: s.chunkPoolFor(toCold), id: entry.ChunkID, data: data, off: entry.Start}},
		bind: func(cur *ChunkMap, _ *store.Txn) ([]Entry, bool, error) {
			i := cur.Find(entry.Start)
			if i < 0 || cur.Entries[i] != entry {
				return nil, true, nil // newer write or concurrent re-flush; leave it be
			}
			cur.Entries[i].Cold = toCold
			return []Entry{entry}, false, nil
		},
	})
}
