package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

type env struct {
	eng *sim.Engine
	c   *rados.Cluster
	s   *Store
	cl  *Client
}

func newDedupEnv(t *testing.T, mutate func(*Config)) *env {
	t.Helper()
	return newSeededEnv(t, 11, mutate)
}

// newSeededEnv is newDedupEnv on an engine whose randomness derives from seed.
func newSeededEnv(t *testing.T, seed int64, mutate func(*Config)) *env {
	t.Helper()
	eng := sim.New(seed)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	cfg := DefaultConfig()
	cfg.ChunkSize = 4096 // small chunks keep tests fast
	cfg.Rate.Enabled = false
	cfg.HitSet.HitCount = 100 // effectively nothing is hot unless a test wants it
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Open(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &env{eng: eng, c: c, s: s, cl: s.Client("client0")}
}

func (e *env) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	var panicked error
	e.eng.Go("test", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				panicked = fmt.Errorf("panic: %v", r)
			}
		}()
		fn(p)
	})
	e.eng.Run()
	if panicked != nil {
		t.Fatal(panicked)
	}
	checkShared(e.c)
}

// checkShared sweeps every OSD's store for a shared payload that changed
// under it (a no-op without -tags storecheck; `make storecheck` runs with it).
func checkShared(c *rados.Cluster) {
	for _, id := range c.OSDs() {
		if st, ok := c.OSDStore(id); ok {
			st.CheckShared()
		}
	}
}

// at makes fn the handler of the named point l (sim.Engine.SetPoints): fn
// runs on the process that reached l, with the point's key, and returns true
// to end the operation there. Every other point passes. e.eng.SetPoints(nil)
// removes it.
func (e *env) at(l sim.Label, fn func(p *sim.Proc, key string) bool) {
	e.eng.SetPoints(func(p *sim.Proc, at sim.Label, key string) bool { return at == l && fn(p, key) })
}

// drain flushes all dirty objects and stops the engine.
func (e *env) drain(t *testing.T) {
	t.Helper()
	e.run(t, func(p *sim.Proc) { e.s.Engine().DrainAndWait(p) })
}

// checkScrub runs scrubClean on a process of its own.
func (e *env) checkScrub(t *testing.T) {
	t.Helper()
	e.run(t, func(p *sim.Proc) { scrubClean(t, p, e) })
}

// scrubClean wants the dedup scrub of a settled store clean and no intent
// left; in strict mode also every reference bound and every chunk
// referenced, which false-positive mode leaves to GC.
func scrubClean(t *testing.T, p *sim.Proc, e *env) {
	t.Helper()
	rep, err := e.s.Scrub(p)
	if err != nil || !rep.Clean() || rep.Intents != 0 {
		t.Errorf("scrub: err %v, issues %v, %d intents", err, rep.Issues, rep.Intents)
	}
	if !e.s.cfg.FalsePositiveRefs && (rep.UnboundRefs != 0 || rep.Unreferenced != 0) {
		t.Errorf("scrub (strict mode): %d unbound references, %d unreferenced chunks", rep.UnboundRefs, rep.Unreferenced)
	}
}

func TestWriteReadCachedRoundTrip(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := make([]byte, 10000)
	rand.New(rand.NewSource(1)).Read(data)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Error(err)
		}
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("round trip failed: %v", err)
		}
		n, err := e.cl.Stat(p, "obj")
		if err != nil || n != int64(len(data)) {
			t.Errorf("stat = %d, %v", n, err)
		}
	})
}

func TestFlushMovesDataToChunkPool(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := make([]byte, 12288) // 3 chunks
	rand.New(rand.NewSource(2)).Read(data)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Error(err)
		}
	})
	e.drain(t)
	// Chunk pool must now hold 3 chunks; metadata object holds none cached.
	cp := e.c.PoolStats(e.s.chunk)
	if cp.Objects != 3 {
		t.Fatalf("chunk pool has %d objects, want 3", cp.Objects)
	}
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("read after flush failed: %v", err)
		}
		// Sub-range read crossing a chunk boundary (redirection path).
		part, err := e.cl.Read(p, "obj", 4000, 300)
		if err != nil || !bytes.Equal(part, data[4000:4300]) {
			t.Errorf("range read after flush failed: %v", err)
		}
	})
	e.checkScrub(t)
}

func TestGlobalDedupAcrossObjects(t *testing.T) {
	e := newDedupEnv(t, nil)
	shared := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(shared)
	e.run(t, func(p *sim.Proc) {
		// 10 objects with identical content: double hashing must collapse
		// them into one chunk regardless of which PG/OSD each object maps to.
		for i := 0; i < 10; i++ {
			if err := e.cl.Write(p, fmt.Sprintf("vm-%d", i), 0, shared); err != nil {
				t.Error(err)
			}
		}
	})
	e.drain(t)
	cp := e.c.PoolStats(e.s.chunk)
	if cp.Objects != 1 {
		t.Fatalf("chunk pool has %d objects, want 1 (global dedup)", cp.Objects)
	}
	if cp.LogicalBytes != 4096 {
		t.Fatalf("chunk pool logical = %d", cp.LogicalBytes)
	}
	// Ten committed references.
	e.run(t, func(p *sim.Proc) {
		if n := len(chunkState(t, p, e, e.s.chunk, FingerprintID(shared)).refs); n != 10 {
			t.Errorf("%d committed references, want 10", n)
		}
	})
	e.checkScrub(t)
}

func TestOverwriteAfterFlushRededups(t *testing.T) {
	e := newDedupEnv(t, nil)
	first := bytes.Repeat([]byte{1}, 4096)
	second := bytes.Repeat([]byte{2}, 4096)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, first) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, second) })
	e.drain(t)
	// Old chunk must be deleted (its only reference was dropped), new chunk
	// present.
	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(first)); ok {
			t.Error("old chunk not reclaimed after overwrite")
		}
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(second)); !ok {
			t.Error("new chunk missing")
		}
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, second) {
			t.Errorf("read = %v", err)
		}
	})
	e.checkScrub(t)
}

func TestSubChunkWritePreRead(t *testing.T) {
	e := newDedupEnv(t, nil)
	base := make([]byte, 8192)
	rand.New(rand.NewSource(4)).Read(base)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, base) })
	e.drain(t) // data now only in chunk pool
	patch := []byte("PARTIAL")
	e.run(t, func(p *sim.Proc) {
		// 7-byte write into a 4K chunk: primary must pre-read the chunk.
		if err := e.cl.Write(p, "obj", 1000, patch); err != nil {
			t.Error(err)
		}
		want := append([]byte(nil), base...)
		copy(want[1000:], patch)
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("pre-read merge failed: %v", err)
		}
	})
	e.drain(t)
	e.checkScrub(t)
}

func TestDeleteDereferencesChunks(t *testing.T) {
	e := newDedupEnv(t, nil)
	shared := bytes.Repeat([]byte{7}, 4096)
	e.run(t, func(p *sim.Proc) {
		e.cl.Write(p, "a", 0, shared)
		e.cl.Write(p, "b", 0, shared)
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Delete(p, "a"); err != nil {
			t.Error(err)
		}
	})
	// Chunk survives (b still references it).
	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(shared)); !ok {
			t.Error("chunk deleted while still referenced")
		}
		if _, err := e.cl.Read(p, "a", 0, -1); err != ErrNotFound {
			t.Errorf("read deleted object: %v", err)
		}
		got, err := e.cl.Read(p, "b", 0, -1)
		if err != nil || !bytes.Equal(got, shared) {
			t.Errorf("b unreadable after deleting a: %v", err)
		}
	})
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Delete(p, "b"); err != nil {
			t.Error(err)
		}
	})
	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(shared)); ok {
			t.Error("chunk not reclaimed after last reference")
		}
	})
}

func TestSpaceSaving(t *testing.T) {
	e := newDedupEnv(t, nil)
	shared := make([]byte, 64<<10)
	rand.New(rand.NewSource(5)).Read(shared)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			e.cl.Write(p, fmt.Sprintf("img%d", i), 0, shared)
		}
	})
	e.drain(t)
	meta := e.c.PoolStats(e.s.meta)
	chunk := e.c.PoolStats(e.s.chunk)
	logical := int64(8 * len(shared))
	stored := meta.StoredTotal() + chunk.StoredTotal()
	// 8 identical 64K objects, 2x replication: logical raw = 1MB stored
	// would be 2x; dedup should store ~64K*2 + metadata.
	if stored > logical/2 {
		t.Fatalf("stored %d bytes for %d logical (no dedup effect?)", stored, logical)
	}
}

func TestHotObjectSkipped(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) {
		cfg.HitSet.HitCount = 2
		cfg.HitSet.Period = time.Second
		cfg.HitSet.Retain = 4
	})
	data := bytes.Repeat([]byte{9}, 4096)
	// Warm up hotness (two accesses in different hitset periods) before the
	// engine starts, so the object is already hot when first scanned.
	e.run(t, func(p *sim.Proc) {
		e.cl.Write(p, "hot", 0, data)
		p.Sleep(1100 * time.Millisecond)
		e.cl.Write(p, "hot", 0, data)
	})
	// No skip yet.
	if sk := e.s.Engine().Stats().SkippedHot; sk != 0 {
		t.Fatalf("SkippedHot %d before the engine ran", sk)
	}
	e.s.StartEngine()
	e.run(t, func(p *sim.Proc) {
		// Keep touching the object every period: it stays hot.
		for i := 0; i < 5; i++ {
			p.Sleep(time.Second)
			if err := e.cl.Write(p, "hot", 0, data); err != nil {
				t.Error(err)
			}
		}
		// Engine had plenty of cycles; the hot object must not be flushed.
		if st := e.s.Engine().Stats(); st.ChunksFlushed > 0 {
			t.Errorf("hot object flushed %d chunks", st.ChunksFlushed)
		}
		if sk := e.s.Engine().Stats().SkippedHot; sk == 0 {
			t.Error("engine never skipped the hot object")
		} else if reg := e.c.Metrics().Counter("cache_skip_flush_hot_total").Value(); reg != sk {
			t.Errorf("SkippedHot %d, cache_skip_flush_hot_total %d: want one count", sk, reg)
		}
	})
	// After the object cools down, drain flushes it.
	e.drain(t)
	if st := e.s.Engine().Stats(); st.ChunksFlushed == 0 {
		t.Fatal("object never flushed after cooling")
	}
	e.checkScrub(t)
}

// TestTieringPolicyCountsInRegistry: the policy's Stats read its three
// registry counters, and a hot object the engine skips, a cold object it
// flushes and a drain that flushes the still-hot object move all three.
func TestTieringPolicyCountsInRegistry(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) {
		cfg.HitSet.HitCount = 2
		cfg.HitSet.Period = time.Second
		cfg.HitSet.Retain = 4
	})
	hot, cold := bytes.Repeat([]byte{3}, 4096), bytes.Repeat([]byte{4}, 4096)
	e.run(t, func(p *sim.Proc) {
		e.cl.Write(p, "cold", 0, cold)
		e.cl.Write(p, "hot", 0, hot)
		p.Sleep(1100 * time.Millisecond)
		e.cl.Write(p, "hot", 0, hot)
	})
	e.s.StartEngine()
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			if err := e.cl.Write(p, "hot", 0, hot); err != nil {
				t.Error(err)
			}
		}
	})
	e.drain(t)
	skipped, kept, evicted := e.s.Cache().Stats()
	reg := e.c.Metrics()
	for _, c := range []struct {
		name string
		got  int64
	}{
		{"cache_skip_flush_hot_total", skipped},
		{"cache_keep_cached_total", kept},
		{"cache_evict_cold_total", evicted},
	} {
		if want := reg.Counter(c.name).Value(); c.got != want || c.got == 0 {
			t.Errorf("Stats reads %s %d, registry %d; want equal and non-zero", c.name, c.got, want)
		}
	}
	e.checkScrub(t)
}

func TestFlushThroughMode(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.Mode = ModeFlushThrough })
	data := make([]byte, 8192)
	rand.New(rand.NewSource(6)).Read(data)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Error(err)
		}
		// No drain needed: data must already be in the chunk pool.
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("read = %v", err)
		}
	})
	if cp := e.c.PoolStats(e.s.chunk); cp.Objects != 2 {
		t.Fatalf("chunk pool objects = %d, want 2", cp.Objects)
	}
	e.checkScrub(t)
}

func TestInlineMode(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.Mode = ModeInline })
	data := make([]byte, 8192)
	rand.New(rand.NewSource(7)).Read(data)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Error(err)
		}
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("inline round trip: %v", err)
		}
		// Partial write: read-modify-write of the chunk (Fig. 5a).
		if err := e.cl.Write(p, "obj", 100, []byte("XYZ")); err != nil {
			t.Error(err)
		}
		want := append([]byte(nil), data...)
		copy(want[100:], "XYZ")
		got, err = e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("inline partial write: %v", err)
		}
	})
	e.checkScrub(t)
}

// TestInlineLocksDropped: an inline write lock lives only while its object
// is being written; writers that queued behind one another leave none.
func TestInlineLocksDropped(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.Mode = ModeInline })
	e.run(t, func(p *sim.Proc) {
		var sigs []*sim.Signal
		for i := 0; i < 8; i++ {
			oid := fmt.Sprintf("o%d", i)
			if i >= 6 {
				oid = "shared" // three writers of one object queue on its lock
			}
			data := mkData(byte(i), 4096)
			sigs = append(sigs, p.Go("writer", func(q *sim.Proc) {
				if err := e.cl.Write(q, oid, 0, data); err != nil {
					t.Error(err)
				}
			}))
		}
		if err := e.cl.Write(p, "shared", 0, mkData(9, 4096)); err != nil {
			t.Error(err)
		}
		for _, sig := range sigs {
			sig.Wait(p)
		}
	})
	if n := len(e.s.objLocks); n != 0 {
		t.Fatalf("%d inline write locks left after every write returned, want 0", n)
	}
	e.checkScrub(t)
}

func TestInlineDedupsAcrossObjects(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.Mode = ModeInline })
	shared := bytes.Repeat([]byte{3}, 4096)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			e.cl.Write(p, fmt.Sprintf("o%d", i), 0, shared)
		}
	})
	if cp := e.c.PoolStats(e.s.chunk); cp.Objects != 1 {
		t.Fatalf("chunk pool objects = %d, want 1", cp.Objects)
	}
	e.checkScrub(t)
}

func TestConcurrentWritersDistinctObjects(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.s.StartEngine()
	contents := map[string][]byte{}
	rng := rand.New(rand.NewSource(8))
	e.run(t, func(p *sim.Proc) {
		var sigs []*sim.Signal
		for w := 0; w < 8; w++ {
			w := w
			cl := e.s.Client(fmt.Sprintf("client%d", w))
			sigs = append(sigs, p.Go("writer", func(q *sim.Proc) {
				for i := 0; i < 10; i++ {
					oid := fmt.Sprintf("w%d-o%d", w, i)
					data := make([]byte, 4096+rng.Intn(4096))
					rng.Read(data)
					contents[oid] = data
					if err := cl.Write(q, oid, 0, data); err != nil {
						t.Error(err)
					}
				}
			}))
		}
		sim.WaitAll(p, sigs...)
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		for oid, want := range contents {
			got, err := e.cl.Read(p, oid, 0, -1)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("object %s corrupt: %v", oid, err)
			}
		}
	})
	e.checkScrub(t)
}

func TestWriteRacingFlush(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.s.StartEngine()
	final := bytes.Repeat([]byte{0xAB}, 4096)
	e.run(t, func(p *sim.Proc) {
		// Interleave writes to the same slot with engine cycles: the gen
		// guard must keep the final content authoritative.
		for i := 0; i < 20; i++ {
			data := bytes.Repeat([]byte{byte(i)}, 4096)
			if i == 19 {
				data = final
			}
			if err := e.cl.Write(p, "contended", 0, data); err != nil {
				t.Error(err)
			}
			p.Sleep(20 * time.Millisecond) // let the engine race
		}
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "contended", 0, -1)
		if err != nil || !bytes.Equal(got, final) {
			t.Errorf("lost final write: %v", err)
		}
	})
	e.checkScrub(t)
}

func TestDedupOnECChunkPool(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) {
		cfg.ChunkRedundancy = rados.ErasureKM(2, 1)
	})
	data := make([]byte, 16384)
	rand.New(rand.NewSource(9)).Read(data)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, data) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("read from EC chunk pool: %v", err)
		}
	})
	// EC 2+1 overhead on the chunk pool: stored ~1.5x chunk bytes.
	cp := e.c.PoolStats(e.s.chunk)
	if cp.Objects != 4 {
		t.Fatalf("chunk pool objects = %d", cp.Objects)
	}
	e.checkScrub(t)
}

func TestRecoveryPreservesDedupState(t *testing.T) {
	e := newDedupEnv(t, nil)
	shared := make([]byte, 32768)
	rand.New(rand.NewSource(10)).Read(shared)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			e.cl.Write(p, fmt.Sprintf("o%d", i), 0, shared)
		}
	})
	e.drain(t)
	// Fail and replace two OSDs; the substrate's recovery must restore both
	// metadata objects (with chunk maps) and chunk objects (with refcounts)
	// — the "self-contained object" claim.
	e.c.FailOSD(2)
	e.c.FailOSD(9)
	if _, err := e.c.ReplaceOSD(2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.ReplaceOSD(9); err != nil {
		t.Fatal(err)
	}
	e.run(t, func(p *sim.Proc) { e.c.Recover(p) })
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			got, err := e.cl.Read(p, fmt.Sprintf("o%d", i), 0, -1)
			if err != nil || !bytes.Equal(got, shared) {
				t.Errorf("object o%d corrupt after recovery: %v", i, err)
			}
		}
	})
	e.checkScrub(t)
}

func TestStatAfterEviction(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := make([]byte, 10000)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, data) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		n, err := e.cl.Stat(p, "obj")
		if err != nil || n != 10000 {
			t.Errorf("stat after flush = %d, %v", n, err)
		}
	})
}

func TestReadMissingObject(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.run(t, func(p *sim.Proc) {
		if _, err := e.cl.Read(p, "ghost", 0, -1); err != ErrNotFound {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
		if _, err := e.cl.Stat(p, "ghost"); err != ErrNotFound {
			t.Errorf("stat err = %v", err)
		}
	})
}

func TestZeroLengthWrite(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, nil); err != nil {
			t.Errorf("zero-length write: %v", err)
		}
		if ok, _ := e.cl.gw.Exists(p, e.s.meta, "obj"); ok {
			t.Error("zero-length write created object")
		}
	})
}

func TestMetadataEvictionReclaimsSpace(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(12)).Read(data)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, data) })
	before := e.c.PoolStats(e.s.meta).StoredPhysical
	e.drain(t)
	after := e.c.PoolStats(e.s.meta).StoredPhysical
	if after >= before {
		t.Fatalf("metadata pool did not shrink after flush: %d -> %d", before, after)
	}
	if after > int64(len(data)) {
		t.Fatalf("metadata pool still holds %d bytes of data after eviction", after)
	}
}

// newTestCluster builds a bare 4x4 testbed for config-validation tests.
func newTestCluster(eng *sim.Engine) *rados.Cluster {
	return rados.NewTestbed(eng, simcost.Default(), 4, 4)
}
