package core

import (
	"errors"
	"fmt"

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
// source must be fully flushed (every slot clean and chunk-backed). It is one
// transition on the clone — a data-less put per chunk, which pins the chunk or
// fails with ErrChunkVanished — so it is crash-safe the way a flush is.
func (cl *Client) Snapshot(p *sim.Proc, srcOID, dstOID string) error {
	s := cl.s
	if srcOID == dstOID {
		return fmt.Errorf("core: snapshot onto itself (%q)", srcOID)
	}
	cm, err := s.readChunkMap(p, cl.gw, srcOID)
	if err != nil {
		return err
	}
	// The clone's map: same bindings, nothing cached, clean.
	clone := make([]Entry, len(cm.Entries))
	puts := make([]chunkPut, len(cm.Entries))
	for i, entry := range cm.Entries {
		if entry.Dirty || entry.ChunkID == "" {
			return ErrSnapshotDirty
		}
		puts[i] = chunkPut{pool: s.chunkPoolFor(entry.Cold), id: entry.ChunkID, off: entry.Start}
		entry.Cached, entry.Gen = false, 0
		clone[i] = entry
	}
	_, err = s.rebind(p, cl.gw, dstOID, transition{
		puts: puts,
		bind: func(cur *ChunkMap, _ *store.Txn) ([]Entry, bool, error) {
			if len(cur.Entries) > 0 {
				return nil, false, fmt.Errorf("core: snapshot target %q already exists", dstOID)
			}
			cur.Entries = clone
			return nil, false, nil
		},
	})
	return err
}
