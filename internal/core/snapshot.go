package core

import (
	"errors"
	"fmt"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Snapshots: a natural extension the self-contained-object design makes
// almost free. Because a flushed metadata object is just a chunk map whose
// chunks are reference-counted, cloning an object is copying its map and
// taking one extra reference per chunk — no data moves. Writes to either
// the source or the clone then diverge naturally: the write path marks the
// touched slot dirty, the flush fingerprints the new content, and the §4.4.1
// de-reference step drops only that object's claim on the old chunk.

// ErrSnapshotDirty is returned when the source object still has dirty
// (unflushed) chunks; flush first (Engine.DrainAndWait or wait for the
// background engine).
var ErrSnapshotDirty = errors.New("core: source object has unflushed chunks; flush before snapshotting")

// Snapshot clones srcOID into dstOID without copying data: dst gets a copy
// of src's chunk map and one additional reference on every chunk. The
// source must be fully flushed (every slot clean and chunk-backed).
func (cl *Client) Snapshot(p *sim.Proc, srcOID, dstOID string) error {
	s := cl.s
	if srcOID == dstOID {
		return fmt.Errorf("core: snapshot onto itself (%q)", srcOID)
	}
	cm, err := s.readChunkMap(p, cl.gw, srcOID)
	if err != nil {
		return err
	}
	for _, entry := range cm.Entries {
		if entry.Dirty || entry.ChunkID == "" {
			return ErrSnapshotDirty
		}
	}
	if ok, err := cl.gw.Exists(p, s.meta, dstOID); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("core: snapshot target %q already exists", dstOID)
	}

	// Reference every chunk on behalf of the clone. putRefFn is idempotent
	// per (object, offset) key, so a crashed, re-run snapshot converges.
	taken := make([]Ref, 0, len(cm.Entries))
	for _, entry := range cm.Entries {
		ref := Ref{Pool: s.meta.ID, OID: dstOID, Offset: entry.Start}
		err := cl.gw.Mutate(p, s.chunkPoolFor(entry.Cold), entry.ChunkID, func(v rados.View) (*store.Txn, error) {
			if !v.Exists() {
				return nil, fmt.Errorf("core: chunk %s vanished during snapshot", entry.ChunkID)
			}
			if _, err := v.OmapGet(ref.Key()); err == nil {
				return nil, nil // already referenced (idempotent retry)
			}
			count, gen, err := readRC(v)
			if err != nil {
				return nil, err
			}
			return store.NewTxn().
				SetXattr(XattrRefCount, encodeRC(count+1, gen+1)).
				OmapSet(ref.Key(), nil), nil
		})
		if err != nil {
			// Roll back the references taken so far.
			for _, r := range taken {
				if i := cm.Find(r.Offset); i >= 0 {
					src := cm.Entries[i]
					_ = cl.gw.Mutate(p, s.chunkPoolFor(src.Cold), src.ChunkID, releaseRefFn(r, true))
				}
			}
			return err
		}
		taken = append(taken, ref)
	}

	// Write the clone's metadata object: same map, nothing cached, clean.
	clone := &ChunkMap{}
	for _, entry := range cm.Entries {
		entry.Cached = false
		entry.Dirty = false
		entry.Gen = 0
		clone.Entries = append(clone.Entries, entry)
	}
	return cl.gw.Mutate(p, s.meta, dstOID, func(rados.View) (*store.Txn, error) {
		return store.NewTxn().Create().SetXattr(XattrChunkMap, clone.Marshal()), nil
	})
}
