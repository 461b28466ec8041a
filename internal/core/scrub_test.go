package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
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

// TestDedupScrubRacesFlush: a pass beside a drain reads reference tables
// before the flushes commit and chunk maps after they bind. The bindings it
// joins against stale tables are re-read before they count, so the pass
// reports no issue.
func TestDedupScrubRacesFlush(t *testing.T) {
	e := newDedupEnv(t, nil)
	const n = 40
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := e.cl.Write(p, fmt.Sprintf("a%02d", i), 0, mkData(byte(i), 4096)); err != nil {
				t.Error(err)
			}
		}
		e.s.Engine().DrainAndWait(p)
		// Duplicates of every chunk, dirty: their flushes add references to
		// chunks the scrub lists.
		for i := 0; i < n; i++ {
			if err := e.cl.Write(p, fmt.Sprintf("b%02d", i), 0, mkData(byte(i), 4096)); err != nil {
				t.Error(err)
			}
		}
		drain := p.Go("drain", func(q *sim.Proc) { e.s.Engine().DrainAndWait(q) })
		rep, err := e.s.Scrub(p)
		drain.Wait(p)
		if err != nil || !rep.Clean() {
			t.Errorf("scrub racing a drain: err=%v, issues %v", err, rep.Issues)
		}
	})
	e.checkScrub(t)
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
		if want := []ScrubIssue{{OID: chunkOID, Kind: KindBitRot}}; !slices.Equal(rep.Issues, want) {
			t.Fatalf("issues %v, want %v", rep.Issues, want)
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
		if want := []ScrubIssue{{OID: chunkOID, Kind: KindBitRot}}; !slices.Equal(rep.Issues, want) {
			t.Errorf("second pass: issues %v, want %v", rep.Issues, want)
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
		if want := []ScrubIssue{{OID: "obj", Kind: KindMissingChunk}}; !slices.Equal(rep.Issues, want) {
			t.Fatalf("issues %v, want %v", rep.Issues, want)
		}
	})
}

// TestScrubKinds breaks one invariant per row on a settled store, where "a"
// and "b" share one flushed chunk, and wants Scrub to report exactly that
// kind, or exactly that outstanding count, and to leave every object's bytes,
// xattrs and omap on every OSD as they were.
func TestScrubKinds(t *testing.T) {
	data := mkData(0x51, 4096)
	id := FingerprintID(data)
	edit := func(t *testing.T, p *sim.Proc, e *env, pool *rados.Pool, oid string, txn *store.Txn) {
		t.Helper()
		if err := e.s.hostGW(anyHost(e.s)).Mutate(p, pool, oid, func(rados.View) (*store.Txn, error) { return txn, nil }); err != nil {
			t.Fatal(err)
		}
	}
	refOf := func(e *env, oid string) Ref { return e.s.refAt(oid, 0) }
	// killFlush writes "k" and flushes it with a crash at point l.
	killFlush := func(l sim.Label) func(*testing.T, *sim.Proc, *env) {
		return func(t *testing.T, p *sim.Proc, e *env) {
			if err := e.cl.Write(p, "k", 0, mkData(0x52, 4096)); err != nil {
				t.Fatal(err)
			}
			e.at(l, func(_ *sim.Proc, oid string) bool { return oid == "k" })
			defer e.eng.SetPoints(nil)
			gw, host, err := e.s.metaPrimaryGW("k", qos.Dedup)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.s.engine.flushObject(p, gw, host, "k", true); err != nil {
				t.Fatal(err)
			}
		}
	}
	fp := func(cfg *Config) { cfg.FalsePositiveRefs = true }
	type outcome struct {
		Issues                             []ScrubIssue
		Intents, UnboundRefs, Unreferenced int
	}
	for _, tc := range []struct {
		name    string
		newEnv  func(*testing.T, func(*Config)) *env
		mutate  func(*Config)
		breakIt func(*testing.T, *sim.Proc, *env)
		want    outcome
	}{
		{"kill at core.rebind.after_bind", newDedupEnv, nil, killFlush(atAfterBind), outcome{Intents: 1}},
		{"leftover intent: kill at core.rebind.after_intent", newDedupEnv, nil, killFlush(atAfterIntent), outcome{Intents: 1}},
		{"hand-written reference", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			edit(t, p, e, e.s.chunk, id, store.NewTxn().OmapSet(refOf(e, "ghost").Key(), nil))
		}, outcome{UnboundRefs: 1}},
		{"released chunk", newDedupEnv, fp, func(t *testing.T, p *sim.Proc, e *env) {
			for _, oid := range []string{"a", "b"} {
				if err := e.cl.Write(p, oid, 0, mkData(0x53, 4096)); err != nil {
					t.Fatal(err)
				}
			}
			e.s.Engine().DrainAndWait(p)
		}, outcome{Unreferenced: 1}},
		{"deleted chunk", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			for _, osd := range e.c.OSDs() {
				st, _ := e.c.OSDStore(osd)
				st.Apply(store.Key{Pool: e.s.chunk.ID, OID: id}, store.NewTxn().Delete())
			}
		}, outcome{Issues: []ScrubIssue{{"a", KindMissingChunk}, {"b", KindMissingChunk}}}},
		{"removed reference", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			edit(t, p, e, e.s.chunk, id, store.NewTxn().OmapRm(refOf(e, "a").Key()))
		}, outcome{Issues: []ScrubIssue{{"a", KindUnrefBinding}}}},
		{"removed reference, cold-pool binding", newTierEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			coolDown(p)
			if ps, err := e.s.TierPass(p); err != nil || ps.DemotedChunks != 2 {
				t.Fatalf("demotion: err %v, %+v", err, ps)
			}
			edit(t, p, e, e.s.coldChunk, id, store.NewTxn().OmapRm(refOf(e, "a").Key()))
		}, outcome{Issues: []ScrubIssue{{"a", KindUnrefBinding}}}},
		{"bit rot", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			for _, osd := range actingOSDs(e, e.s.chunk, id) {
				if err := e.c.CorruptForTest(osd, store.Key{Pool: e.s.chunk.ID, OID: id}, 5); err != nil {
					t.Fatal(err)
				}
			}
		}, outcome{Issues: []ScrubIssue{{id, KindBitRot}}}},
		{"unparseable reference key", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			edit(t, p, e, e.s.chunk, id, store.NewTxn().OmapSet("ref.garbage", nil))
		}, outcome{Issues: []ScrubIssue{{id, KindBadRefKey}}}},
		{"unparseable intent key", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			edit(t, p, e, e.s.chunk, id, store.NewTxn().OmapSet("int.garbage", nil))
		}, outcome{Issues: []ScrubIssue{{id, KindBadIntentKey}}, Intents: 1}},
		{"unknown key", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			edit(t, p, e, e.s.chunk, id, store.NewTxn().OmapSet("bogus", nil))
		}, outcome{Issues: []ScrubIssue{{id, KindUnknownKey}}}},
		{"corrupt map", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			edit(t, p, e, e.s.meta, "a", store.NewTxn().SetXattr(XattrChunkMap, []byte{0xff}))
		}, outcome{Issues: []ScrubIssue{{"a", KindCorruptMap}}, UnboundRefs: 1}},
		{"missing map", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			edit(t, p, e, e.s.meta, "bare", store.NewTxn().Create())
		}, outcome{Issues: []ScrubIssue{{"bare", KindMissingMap}}}},
		{"lost slot", newDedupEnv, nil, func(t *testing.T, p *sim.Proc, e *env) {
			cm := &ChunkMap{Entries: []Entry{{Start: 0, End: 4096}}}
			edit(t, p, e, e.s.meta, "lost", store.NewTxn().Create().SetXattr(XattrChunkMap, cm.Marshal()))
		}, outcome{Issues: []ScrubIssue{{"lost", KindLostSlot}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.newEnv(t, tc.mutate)
			e.run(t, func(p *sim.Proc) {
				for _, oid := range []string{"a", "b"} {
					if err := e.cl.Write(p, oid, 0, data); err != nil {
						t.Fatal(err)
					}
				}
				e.s.Engine().DrainAndWait(p)
				tc.breakIt(t, p, e)
				before := storeDigest(t, e.c)
				rep, err := e.s.Scrub(p)
				if err != nil {
					t.Fatal(err)
				}
				got := outcome{rep.Issues, rep.Intents, rep.UnboundRefs, rep.Unreferenced}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Errorf("scrub reports %+v, want %+v", got, tc.want)
				}
				if storeDigest(t, e.c) != before {
					t.Error("the scrub changed an object")
				}
			})
		})
	}
}

// storeDigest hashes every object on every OSD: its key, version, bytes,
// xattrs and omap.
func storeDigest(t *testing.T, c *rados.Cluster) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	kv := func(m map[string][]byte) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%q=%x;", k, m[k])
		}
	}
	for _, osd := range c.OSDs() {
		st, _ := c.OSDStore(osd)
		for _, k := range st.Keys() {
			obj, err := st.Snapshot(k)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%d/%v@%d:%x|", osd, k, obj.Version, obj.Data)
			kv(obj.Xattr)
			kv(obj.Omap)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
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
