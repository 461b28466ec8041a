package core

import (
	"fmt"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Content-defined chunking mode. The paper evaluates static chunking and
// notes CDC as the CPU-heavy alternative (§5); this mode implements it end
// to end as an extension: writes land in the metadata object as usual (the
// write path stays fixed-slot for caching and dirty tracking), but the
// background flush re-chunks the WHOLE object with a rolling-hash CDC
// splitter, so byte-shifted duplicates across objects still collapse.
//
// Mechanics: CDC boundaries depend on the full object content, so a CDC
// flush materializes the complete object — cached ranges from the metadata
// object, flushed ranges from their chunks — splits it, and swaps the whole
// chunk map in one rebind transition (refcount.go): N puts, one bind, every
// replaced chunk released. A racing client write (any slot's Gen changed)
// fails the bind, leaving the object dirty for the next cycle — the same
// convergence argument as §4.6.

// flushCDC deduplicates one object with content-defined chunking. A CDC
// flush rewrites the whole object in one transaction and can't pause between
// chunks, so a paced one prepays one admission slot and bills the rest of its
// cost postpaid once the chunk count is known. It reports whether the object
// must go back on the dirty list.
func (e *Engine) flushCDC(p *sim.Proc, gw *rados.Gateway, hostName, oid string, cm *ChunkMap, paced bool) (requeue bool) {
	if paced {
		e.pace(p)
	}
	chunks, bound, err := e.rechunkObject(p, gw, hostName, oid, cm)
	if paced {
		e.s.cluster.QoS().Charge(p, qos.Dedup, int64(chunks))
	}
	return err != nil || !bound
}

// rechunkObject re-chunks one object and rebinds its whole chunk map. It
// returns the number of chunks processed (for QoS cost billing); bound=false
// with a nil error means a client write raced the swap.
func (e *Engine) rechunkObject(p *sim.Proc, gw *rados.Gateway, hostName, oid string, cm *ChunkMap) (chunks int, bound bool, err error) {
	s := e.s
	if len(cm.DirtyEntries()) == 0 {
		return 0, true, nil
	}
	size := cm.Size()

	// (1) Materialize the full object content and remember each slot's Gen:
	// each run of cached slots with one read of the metadata object, as a
	// static flush reads them, then each flushed slot from its chunk.
	gens := make(map[int64]uint32, len(cm.Entries))
	data := make([]byte, size)
	var cached []Entry
	for _, entry := range cm.Entries {
		gens[entry.Start] = entry.Gen
		if entry.Cached {
			cached = append(cached, entry)
		}
	}
	for _, run := range splitRuns(cached, func(e Entry) Entry { return e }) {
		start, end := run[0].Start, run[len(run)-1].End
		if _, err := gw.ReadInto(p, s.meta, oid, start, data[start:end]); err != nil {
			return 0, false, fmt.Errorf("core: cdc materialize %s@%d: %w", oid, start, err)
		}
	}
	for _, entry := range cm.Entries {
		if !entry.Cached && entry.ChunkID != "" {
			if _, err := gw.ReadInto(p, s.chunk, entry.ChunkID, 0, data[entry.Start:entry.End]); err != nil {
				return 0, false, fmt.Errorf("core: cdc materialize %s@%d: %w", oid, entry.Start, err)
			}
		}
	}

	// (2) Split with the rolling hash; charge its CPU cost on top of the
	// fingerprinting (the expense the paper avoids, §5).
	cost := s.cluster.Cost()
	if err := s.cluster.UseHostCPU(p, hostName, cost.Hash(len(data))+cost.Hash(len(data))/2); err != nil {
		return 0, false, err
	}
	split := s.cfg.CDC.Split(0, data)

	// (3)–(5) Pin every new chunk, swap the whole map if no write raced (any
	// slot's Gen changed), release every chunk the old map bound. A chunk
	// whose offset and identity survive re-chunking keeps its reference: its
	// put is an idempotent re-pin, so it must not be released.
	puts := make([]chunkPut, len(split))
	next := make([]Entry, len(split))
	newAt := make(map[int64]string, len(split))
	for i, c := range split {
		id := s.name(c.Data)
		puts[i] = chunkPut{pool: s.chunk, id: id, data: c.Data, off: c.Offset, named: true}
		next[i] = Entry{Start: c.Offset, End: c.End(), ChunkID: id}
		newAt[c.Offset] = id
	}
	bound, err = s.rebind(p, gw, oid, transition{
		puts: puts,
		bind: func(cur *ChunkMap, txn *store.Txn) ([]Entry, bool, error) {
			var unbound []Entry
			for _, entry := range cur.Entries {
				if g, ok := gens[entry.Start]; !ok || g != entry.Gen {
					return nil, true, nil
				}
				if newAt[entry.Start] != entry.ChunkID {
					unbound = append(unbound, entry)
				}
			}
			keepCached := s.cache.KeepCachedAfterFlush(p.Now(), oid)
			for i := range next {
				next[i].Cached = keepCached
			}
			cur.Entries = next
			if keepCached {
				txn.Write(0, data) // keep the full object cached
			} else {
				txn.Zero(0, size)
			}
			return unbound, false, nil
		},
	})
	if bound {
		e.noteFlushed(puts)
	}
	return len(split), bound, err
}

// cdcWrite is the CDC-mode client write path: because existing entries may
// have arbitrary (content-defined) boundaries, a write first materializes
// every overlapped entry into the cached data region, then replaces the
// overlapped entries with one cached, dirty span: a transition with nothing
// to pin, whose replaced chunks rebind releases after the map update.
func (cl *Client) cdcWrite(p *sim.Proc, oid string, off int64, data []byte) error {
	s := cl.s
	proxyGW, _, err := s.metaPrimaryGW(oid, qos.Client)
	if err != nil {
		return err
	}
	_, err = s.rebind(p, cl.gw, oid, transition{
		payload: len(data),
		bind: func(cm *ChunkMap, txn *store.Txn) ([]Entry, bool, error) {
			end := off + int64(len(data))
			span := Entry{Start: off, End: end, Cached: true, Dirty: true}
			var kept, replaced []Entry
			for _, entry := range cm.Entries {
				if entry.End <= off || entry.Start >= end {
					kept = append(kept, entry)
					continue
				}
				// Overlap: pull the entry's bytes into the object if needed,
				// then fold it into the new dirty span.
				span.Start = min(span.Start, entry.Start)
				span.End = max(span.End, entry.End)
				if entry.Gen > span.Gen {
					span.Gen = entry.Gen
				}
				if !entry.Cached && entry.ChunkID != "" {
					chunkData, err := proxyGW.Read(p, s.chunk, entry.ChunkID, 0, entry.Len())
					if err != nil {
						return nil, false, fmt.Errorf("core: cdc pre-read %s: %w", entry.ChunkID, err)
					}
					txn.Write(entry.Start, chunkData)
				}
				replaced = append(replaced, entry)
			}
			txn.Write(off, data)
			span.Gen++
			cm.Entries = kept
			cm.Upsert(span)
			// The swallowed chunks' data now lives in the metadata object.
			return replaced, false, nil
		},
	})
	if err != nil {
		return err
	}
	// Log the object for the background engine.
	return s.setDirty(p, cl.gw, oid, true)
}
