package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

func TestDedupScrubClean(t *testing.T) {
	e := newDedupEnv(t, nil)
	shared := bytes.Repeat([]byte{3}, 4096)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			e.cl.Write(p, fmt.Sprintf("o%d", i), 0, shared)
		}
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		rep, err := e.s.Scrub(p)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("clean store scrub found: %v", rep.Issues)
		}
		if rep.ChunkObjects != 1 || rep.MetadataObjects != 5 {
			t.Fatalf("report = %+v", rep)
		}
		if rep.BytesVerified == 0 {
			t.Fatal("no bytes verified")
		}
	})
}

// TestDedupScrubSkipsObjectDeletedWhileHolderDown: deleting an object while
// one of its metadata holders is down leaves that holder a stale copy. The
// namespace lists live objects only, so scrub neither walks the deleted object
// nor reports its chunk map missing.
func TestDedupScrubSkipsObjectDeletedWhileHolderDown(t *testing.T) {
	e := newDedupEnv(t, nil)
	down := actingOSDs(e, e.s.meta, "gone")[1]
	var data []byte
	for b := byte(1); data == nil; b++ {
		if cand := mkData(b, 4096); disjoint([]int{down}, actingOSDs(e, e.s.chunk, FingerprintID(cand))) {
			data = cand
		}
	}
	e.run(t, func(p *sim.Proc) {
		for _, oid := range []string{"gone", "kept"} {
			if err := e.cl.Write(p, oid, 0, data); err != nil {
				t.Error(err)
			}
		}
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.c.CrashOSD(down); err != nil {
			t.Error(err)
		}
		if err := e.cl.Delete(p, "gone"); err != nil {
			t.Error(err)
		}
		rep, err := e.s.Scrub(p)
		if err != nil || !rep.Clean() || rep.MetadataObjects != 1 {
			t.Errorf("scrub with the deleted object's stale copy on osd.%d: err=%v, %d metadata objects, issues %v",
				down, err, rep.MetadataObjects, rep.Issues)
		}
	})
}

// TestDedupScrubRacesDelete: an object deleted between scrub's listing and
// its chunk-map read is gone, not missing its map, and the pass stays clean.
func TestDedupScrubRacesDelete(t *testing.T) {
	e := newDedupEnv(t, nil)
	const n = 40
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := e.cl.Write(p, fmt.Sprintf("o%02d", i), 0, mkData(byte(i), 4096)); err != nil {
				t.Error(err)
			}
		}
	})
	e.run(t, func(p *sim.Proc) {
		// The scrub lists every object at once, then reads the maps in
		// name order; the last one is deleted while it reads the first.
		del := p.Go("delete", func(q *sim.Proc) {
			if err := e.cl.Delete(q, fmt.Sprintf("o%02d", n-1)); err != nil {
				t.Error(err)
			}
		})
		rep, err := e.s.Scrub(p)
		del.Wait(p)
		if err != nil || !rep.Clean() {
			t.Errorf("scrub racing a delete: err=%v, issues %v", err, rep.Issues)
		}
		if rep.MetadataObjects != n {
			t.Errorf("scrub listed %d metadata objects, want %d: the delete did not race the walk", rep.MetadataObjects, n)
		}
	})
}

func TestDedupScrubDetectsChunkBitRot(t *testing.T) {
	e := newDedupEnv(t, nil)
	content := bytes.Repeat([]byte{9}, 4096)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, content) })
	e.drain(t)
	chunkOID := FingerprintID(content)
	// Flip a byte in every replica of the chunk (both copies rot).
	key := store.Key{Pool: e.s.chunk.ID, OID: chunkOID}
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		if st.Exists(key) {
			if err := e.c.CorruptForTest(id, key, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.run(t, func(p *sim.Proc) {
		rep, err := e.s.Scrub(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() {
			t.Fatal("scrub missed chunk bit rot")
		}
		found := false
		for _, is := range rep.Issues {
			if is.OID == chunkOID {
				found = true
			}
		}
		if !found {
			t.Fatalf("wrong issue set: %v", rep.Issues)
		}
	})
}

// TestDedupScrubDetectsBitRotAfterCleanPass: a pass that found a chunk clean
// does not vouch for it on the next one. Rot is an unstamped write, so the
// chunk's version does not move; the next pass still reads every byte and
// reports the chunk.
func TestDedupScrubDetectsBitRotAfterCleanPass(t *testing.T) {
	e := newDedupEnv(t, nil)
	content := bytes.Repeat([]byte{7}, 4096)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, content) })
	e.drain(t)
	chunkOID := FingerprintID(content)
	var first ScrubReport
	e.run(t, func(p *sim.Proc) {
		var err error
		if first, err = e.s.Scrub(p); err != nil || !first.Clean() {
			t.Errorf("first pass: err %v, issues %v", err, first.Issues)
		}
	})
	key := store.Key{Pool: e.s.chunk.ID, OID: chunkOID}
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		if st.Exists(key) {
			if err := e.c.CorruptForTest(id, key, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.run(t, func(p *sim.Proc) {
		rep, err := e.s.Scrub(p)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, is := range rep.Issues {
			found = found || is.OID == chunkOID
		}
		if !found {
			t.Errorf("second pass missed the rot: issues %v", rep.Issues)
		}
		if rep.BytesVerified != first.BytesVerified {
			t.Errorf("second pass verified %d bytes, first %d", rep.BytesVerified, first.BytesVerified)
		}
	})
}

func TestDedupScrubDetectsDanglingChunkRef(t *testing.T) {
	e := newDedupEnv(t, nil)
	content := bytes.Repeat([]byte{4}, 4096)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, content) })
	e.drain(t)
	// Delete the chunk object behind the map's back (on every replica).
	key := store.Key{Pool: e.s.chunk.ID, OID: FingerprintID(content)}
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		st.Apply(key, store.NewTxn().Delete())
	}
	e.run(t, func(p *sim.Proc) {
		rep, err := e.s.Scrub(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() {
			t.Fatal("scrub missed dangling chunk reference")
		}
	})
}

// TestEvictColdOnceCooled: a pass skips a hot cached object, a pass after it
// cools evicts its chunks, and the data reads back from the chunk pool.
func TestEvictColdOnceCooled(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) {
		cfg.HitSet.HitCount = 2
		cfg.HitSet.Period = time.Second
		cfg.HitSet.Retain = 2
	})
	data := bytes.Repeat([]byte{1}, 8192)
	// Make the object hot, flush (it stays cached), then evict it once it
	// has cooled.
	e.run(t, func(p *sim.Proc) {
		e.cl.Write(p, "obj", 0, data)
		p.Sleep(1100 * time.Millisecond)
		e.cl.Write(p, "obj", 0, data)
	})
	e.drain(t) // force-flush; object is hot so chunks stay cached
	metaBefore := e.c.PoolStats(e.s.meta).StoredPhysical
	if metaBefore == 0 {
		t.Fatal("expected hot object to stay cached after flush")
	}
	e.run(t, func(p *sim.Proc) {
		if st := e.s.Engine().EvictCold(p); st.ChunksEvicted != 0 || st.SkippedHot != 1 {
			t.Errorf("pass while hot: %+v, want the object skipped", st)
		}
		p.Sleep(8 * time.Second) // the object cools
		if st := e.s.Engine().EvictCold(p); st.ChunksEvicted != 2 || st.BytesEvicted != int64(len(data)) {
			t.Errorf("pass once cold: %+v, want both chunks evicted", st)
		}
	})
	metaAfter := e.c.PoolStats(e.s.meta).StoredPhysical
	if metaAfter >= metaBefore {
		t.Fatalf("eviction did not shrink the metadata pool: %d -> %d", metaBefore, metaAfter)
	}
	// Data still readable via the chunk pool.
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read after eviction: %v", err)
		}
	})
}

func TestEvictColdSkipsHotAndDirty(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) {
		cfg.HitSet.HitCount = 1 // a single access makes it hot
	})
	data := bytes.Repeat([]byte{2}, 4096)
	e.run(t, func(p *sim.Proc) {
		e.cl.Write(p, "hot", 0, data) // dirty + hot
		stats := e.s.Engine().EvictCold(p)
		if stats.ChunksEvicted != 0 {
			t.Fatalf("evicted %d chunks from a hot, dirty object", stats.ChunksEvicted)
		}
		if stats.SkippedHot == 0 {
			t.Fatal("hot object not counted as skipped")
		}
	})
}
