package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// fabricateBinding writes a minimal metadata object whose chunk map binds
// [0,4096) to chunkOID — the state a crashed flush leaves after phase 2.
func fabricateBinding(t *testing.T, e *env, p *sim.Proc, oid, chunkOID string) {
	t.Helper()
	cm := &ChunkMap{Entries: []Entry{{Start: 0, End: 4096, ChunkID: chunkOID}}}
	gw := e.s.hostGW(anyHost(e.s))
	err := gw.Mutate(p, e.s.meta, oid, func(rados.View) (*store.Txn, error) {
		return store.NewTxn().Create().SetXattr(XattrChunkMap, cm.Marshal()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAuditPromotesCrashedIntent: a crash between the chunk-map binding
// (phase 2) and the commit (phase 3) leaves an intent whose reference the
// audit pass must finish committing.
func TestAuditPromotesCrashedIntent(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	data := bytes.Repeat([]byte{3}, 4096)
	chunkOID := FingerprintID(data)
	ref := Ref{Pool: e.s.meta.ID, OID: "victim", Offset: 0}

	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		// Phase 1 landed (chunk + intent), phase 2 landed (binding), then
		// the flush died before phase 3.
		if err := gw.Mutate(p, e.s.chunk, chunkOID, putIntentFn(e.s.chunk, data, ref, p.Now(), nil)); err != nil {
			t.Fatal(err)
		}
		fabricateBinding(t, e, p, "victim", chunkOID)

		au, err := e.s.Audit(p)
		if err != nil {
			t.Fatal(err)
		}
		if au.IntentsPromoted != 1 {
			t.Errorf("IntentsPromoted = %d, want 1", au.IntentsPromoted)
		}
		if au.LostChunks != 0 {
			t.Errorf("LostChunks = %d, want 0", au.LostChunks)
		}
		// The reference must now be committed.
		keys, err := gw.OmapList(p, e.s.chunk, chunkOID, 0)
		if err != nil || len(keys) != 1 || keys[0] != ref.Key() {
			t.Fatalf("post-audit omap = %v, %v (want just the committed ref)", keys, err)
		}
		// A second pass finds nothing left to do.
		if au, err := e.s.Audit(p); err != nil || !au.Clean() {
			t.Errorf("second audit not clean: %+v, %v", au, err)
		}
	})
	e.checkScrub(t)
}

// TestAuditRepairsMissingRef: a binding whose chunk lost both the reference
// and the intent is repaired by re-adding the committed reference — the
// binding is authoritative.
func TestAuditRepairsMissingRef(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	data := bytes.Repeat([]byte{4}, 4096)
	chunkOID := FingerprintID(data)

	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		// Chunk exists with no trace of the reference the binding implies.
		err := gw.Mutate(p, e.s.chunk, chunkOID, func(rados.View) (*store.Txn, error) {
			return store.NewTxn().WriteFull(data), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		fabricateBinding(t, e, p, "orphan", chunkOID)

		au, err := e.s.Audit(p)
		if err != nil {
			t.Fatal(err)
		}
		if au.RefsRepaired != 1 {
			t.Errorf("RefsRepaired = %d, want 1", au.RefsRepaired)
		}
		// GC must now agree the chunk is live.
		st, err := e.s.GC(p)
		if err != nil || st.ChunksDeleted != 0 || st.StaleRefs != 0 {
			t.Errorf("GC after repair: deleted=%d stale=%d, %v", st.ChunksDeleted, st.StaleRefs, err)
		}
	})
	e.checkScrub(t)
}

// TestAuditReportsLostChunk: a binding pointing at a chunk that does not
// exist, with no cached copy, is unrecoverable — the audit reports it and
// repairs nothing.
func TestAuditReportsLostChunk(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	e.run(t, func(p *sim.Proc) {
		fabricateBinding(t, e, p, "lost", "chk.deadbeef")
		au, err := e.s.Audit(p)
		if err != nil {
			t.Fatal(err)
		}
		if au.LostChunks != 1 {
			t.Errorf("LostChunks = %d, want 1", au.LostChunks)
		}
		if au.IntentsPromoted != 0 || au.RefsRepaired != 0 {
			t.Errorf("unexpected repairs: %+v", au)
		}
	})
}

// TestGCAbortsExpiredIntent: an intent whose lease ran out with no binding
// (crash after phase 1) is aborted and the now-unreferenced chunk deleted.
func TestGCAbortsExpiredIntent(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	data := bytes.Repeat([]byte{5}, 4096)
	chunkOID := FingerprintID(data)
	ref := Ref{Pool: e.s.meta.ID, OID: "gone", Offset: 0}

	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		if err := gw.Mutate(p, e.s.chunk, chunkOID, putIntentFn(e.s.chunk, data, ref, p.Now()+sim.Time(time.Second), nil)); err != nil {
			t.Fatal(err)
		}
		// Before the lease expires the chunk is pinned.
		st, err := e.s.GC(p)
		if err != nil || st.ChunksDeleted != 0 || st.IntentsAborted != 0 {
			t.Fatalf("GC inside lease: deleted=%d aborted=%d, %v", st.ChunksDeleted, st.IntentsAborted, err)
		}
		p.Sleep(2 * time.Second)
		st, err = e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.IntentsAborted != 1 || st.ChunksDeleted != 1 {
			t.Errorf("GC after lease: aborted=%d deleted=%d, want 1/1", st.IntentsAborted, st.ChunksDeleted)
		}
		if st.BytesReclaimed != 4096 {
			t.Errorf("BytesReclaimed = %d, want 4096", st.BytesReclaimed)
		}
		ok, err := gw.Exists(p, e.s.chunk, chunkOID)
		if err != nil || ok {
			t.Fatalf("chunk still exists after abort (ok=%v err=%v)", ok, err)
		}
	})
}

// TestGCPromotesExpiredIntentWithBinding: an expired intent whose binding
// does exist (commit lost in a crash) is promoted by GC, not aborted.
func TestGCPromotesExpiredIntentWithBinding(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	data := bytes.Repeat([]byte{6}, 4096)
	chunkOID := FingerprintID(data)
	ref := Ref{Pool: e.s.meta.ID, OID: "bound", Offset: 0}

	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		if err := gw.Mutate(p, e.s.chunk, chunkOID, putIntentFn(e.s.chunk, data, ref, p.Now(), nil)); err != nil {
			t.Fatal(err)
		}
		fabricateBinding(t, e, p, "bound", chunkOID)
		p.Sleep(time.Second)
		st, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.IntentsPromoted != 1 || st.ChunksDeleted != 0 {
			t.Errorf("promoted=%d deleted=%d, want 1/0", st.IntentsPromoted, st.ChunksDeleted)
		}
		if st := chunkState(t, p, e, e.s.chunk, chunkOID); len(st.refs) != 1 || len(st.intents) != 0 {
			t.Fatalf("chunk %+v, want one committed reference", st)
		}
	})
	e.checkScrub(t)
}

// TestScrubReportsCorruptRefcount: every key in a chunk's reference table
// must parse back to the Ref that wrote it, and nothing but references and
// intents may live there. Scrub reports any other key. GC removes an
// unparseable reference or intent, which would otherwise pin the chunk
// forever, and leaves an unknown key alone.
func TestScrubReportsCorruptRefcount(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	data := bytes.Repeat([]byte{7}, 4096)
	writeTwo(t, e, data)
	e.drain(t)
	chunkOID := FingerprintID(data)

	for _, tc := range []struct {
		key     string
		kind    ScrubKind
		badKeys int64 // what GC removes
	}{
		{"ref.garbage", KindBadRefKey, 1},
		{"int.garbage", KindBadIntentKey, 1},
		{"bogus", KindUnknownKey, 0},
	} {
		e.run(t, func(p *sim.Proc) {
			gw := e.s.hostGW(anyHost(e.s))
			edit := func(txn *store.Txn) {
				t.Helper()
				if err := gw.Mutate(p, e.s.chunk, chunkOID, func(rados.View) (*store.Txn, error) { return txn, nil }); err != nil {
					t.Fatal(err)
				}
			}
			edit(store.NewTxn().OmapSet(tc.key, nil))
			rep, err := e.s.Scrub(p)
			if err != nil || !slices.Equal(rep.Issues, []ScrubIssue{{OID: chunkOID, Kind: tc.kind}}) {
				t.Fatalf("%s: scrub issues %v, %v; want just %s", tc.key, rep.Issues, err, tc.kind)
			}
			st, err := e.s.GC(p)
			if err != nil || st.BadRefKeys != tc.badKeys || st.StaleRefs != 0 || st.ChunksDeleted != 0 {
				t.Fatalf("%s: GC %+v, %v; want %d bad keys removed and the chunk kept", tc.key, st, err, tc.badKeys)
			}
			if tc.badKeys == 0 {
				edit(store.NewTxn().OmapRm(tc.key))
			}
			if rep, err := e.s.Scrub(p); err != nil || !rep.Clean() {
				t.Fatalf("%s: scrub after repair not clean: %v, %v", tc.key, rep.Issues, err)
			}
		})
	}
	e.checkScrub(t)
}
