package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// The §4.6 consistency argument: a crash at any point of the flush protocol
// leaves the dirty bit set (or the chunk already durable), so re-running
// deduplication converges with no lost data and correct reference counts.
// These tests crash the flush at each numbered failure point and verify
// exactly that.

func crashEnv(t *testing.T) *env {
	return newDedupEnv(t, nil)
}

// writeTwo writes two objects sharing one chunk's content.
func writeTwo(t *testing.T, e *env, content []byte) {
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "src-a", 0, content); err != nil {
			t.Error(err)
		}
		if err := e.cl.Write(p, "src-b", 0, content); err != nil {
			t.Error(err)
		}
	})
}

func verifyBoth(t *testing.T, e *env, content []byte) {
	t.Helper()
	e.run(t, func(p *sim.Proc) {
		for _, oid := range []string{"src-a", "src-b"} {
			got, err := e.cl.Read(p, oid, 0, -1)
			if err != nil || !bytes.Equal(got, content) {
				t.Errorf("object %s corrupt after crash recovery: %v", oid, err)
			}
		}
	})
	e.checkIntegrity(t)
}

func TestCrashAfterDeref(t *testing.T) {
	e := crashEnv(t)
	v1 := bytes.Repeat([]byte{1}, 4096)
	v2 := bytes.Repeat([]byte{2}, 4096)
	writeTwo(t, e, v1)
	e.drain(t)
	// Overwrite both so the next flush must de-reference the old chunk.
	writeTwo(t, e, v2)
	crashes := 0
	e.s.hooks.afterRelease = func(string) bool {
		if crashes < 2 {
			crashes++
			return true // crash right after the old chunk's de-reference
		}
		return false
	}
	e.drain(t) // crashes twice, requeues, then succeeds
	if crashes != 2 {
		t.Fatalf("hook fired %d times", crashes)
	}
	verifyBoth(t, e, v2)
}

// TestCrashAfterIntent covers the window the old layout split in two
// (after the chunk put, before the map write): the chunk is pinned by an
// intent and the chunk map is untouched.
func TestCrashAfterIntent(t *testing.T) {
	e := crashEnv(t)
	content := bytes.Repeat([]byte{5}, 4096)
	writeTwo(t, e, content)
	crashes := 0
	e.s.hooks.afterIntent = func(string) bool {
		if crashes < 3 {
			crashes++
			return true // crash between chunk-pool write and map update
		}
		return false
	}
	e.drain(t)
	if crashes != 3 {
		t.Fatalf("hook fired %d times", crashes)
	}
	// §4.6: "If failure occurs at (3), (4), chunk's state is not cleaned.
	// Therefore, next deduplication process handles this dirty chunk ...
	// Since reference data is already stored in the chunk pool, if reference
	// data already exists, the ack is sent without storing chunk."
	verifyBoth(t, e, content)
	cp := e.c.PoolStats(e.s.chunk)
	if cp.Objects != 1 {
		t.Fatalf("chunk pool objects = %d, want 1 (idempotent re-flush)", cp.Objects)
	}
}

func TestCrashStormConverges(t *testing.T) {
	// Random crashes at every hook point across many objects; repeated
	// drains must converge to a consistent, fully deduplicated state.
	e := crashEnv(t)
	rng := rand.New(rand.NewSource(99))
	contents := map[string][]byte{}
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			oid := fmt.Sprintf("obj-%d", i)
			data := make([]byte, 8192)
			if i%3 == 0 {
				copy(data, bytes.Repeat([]byte{0x42}, 8192)) // shared content
			} else {
				rng.Read(data)
			}
			contents[oid] = data
			if err := e.cl.Write(p, oid, 0, data); err != nil {
				t.Error(err)
			}
		}
	})
	crash := func(string) bool { return rng.Intn(3) == 0 }
	e.s.hooks = rebindHooks{afterIntent: crash, afterBind: crash, afterRelease: crash}
	e.drain(t) // crashy drain: some flushes abort and requeue

	// Disable crashes and drain again — protocol must converge. A flush
	// killed after its bind left an uncommitted intent under a live binding:
	// once the lease runs out the audit promotes it.
	e.s.hooks = rebindHooks{}
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		p.Sleep(intentLease + time.Second)
		if _, err := e.s.Audit(p); err != nil {
			t.Error(err)
		}
	})

	e.run(t, func(p *sim.Proc) {
		for oid, want := range contents {
			got, err := e.cl.Read(p, oid, 0, -1)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("object %s corrupt after crash storm: %v", oid, err)
			}
		}
	})
	e.checkIntegrity(t)
}

func TestFalsePositiveRefcountAndGC(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	shared := bytes.Repeat([]byte{8}, 4096)
	writeTwo(t, e, shared)
	e.drain(t)
	chunkOID := FingerprintID(shared)
	e.run(t, func(p *sim.Proc) {
		// Delete both referents: in FP mode the chunk is NOT deleted inline.
		if err := e.cl.Delete(p, "src-a"); err != nil {
			t.Error(err)
		}
		if err := e.cl.Delete(p, "src-b"); err != nil {
			t.Error(err)
		}
		gw := e.s.hostGW(anyHost(e.s))
		if ok, _ := gw.Exists(p, e.s.chunk, chunkOID); !ok {
			t.Fatal("FP mode deleted the chunk inline")
		}
		// GC reclaims it.
		stats, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ChunksDeleted != 1 {
			t.Errorf("GC deleted %d chunks, want 1 (stats: %+v)", stats.ChunksDeleted, stats)
		}
		if ok, _ := gw.Exists(p, e.s.chunk, chunkOID); ok {
			t.Error("chunk survived GC with zero live references")
		}
	})
}

func TestGCKeepsLiveChunks(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	shared := bytes.Repeat([]byte{4}, 4096)
	writeTwo(t, e, shared)
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Delete(p, "src-a"); err != nil {
			t.Error(err)
		}
		stats, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ChunksDeleted != 0 {
			t.Errorf("GC deleted a chunk still referenced by src-b")
		}
		got, err := e.cl.Read(p, "src-b", 0, -1)
		if err != nil || !bytes.Equal(got, shared) {
			t.Errorf("src-b corrupt after GC: %v", err)
		}
	})
}

func TestGCReclaimsLeakedRefs(t *testing.T) {
	// Simulate the FP-mode leak the paper's GC exists for: a chunk whose
	// back reference points at an object slot that moved on.
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	v1 := bytes.Repeat([]byte{1}, 4096)
	v2 := bytes.Repeat([]byte{2}, 4096)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, v1) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, v2) })
	e.drain(t)
	// In FP mode the old chunk (v1) was only de-referenced lock-free — it
	// still exists until GC runs.
	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(v1)); !ok {
			t.Skip("old chunk already reclaimed (drop-ref removed last key)")
		}
		if _, err := e.s.GC(p); err != nil {
			t.Fatal(err)
		}
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(v1)); ok {
			t.Error("GC left an unreferenced chunk")
		}
		if ok, _ := gw.Exists(p, e.s.chunk, FingerprintID(v2)); !ok {
			t.Error("GC deleted the live chunk")
		}
	})
}

// actingOSDs lists the OSDs serving oid in pool.
func actingOSDs(e *env, pool *rados.Pool, oid string) []int {
	return e.c.Map().ActingSetClass(e.c.PGOf(pool, oid), pool.Red.Width(), pool.Class)
}

// disjoint reports whether a shares no OSD with any of the other sets.
func disjoint(a []int, others ...[]int) bool {
	for _, o := range others {
		for _, x := range o {
			for _, y := range a {
				if x == y {
					return false
				}
			}
		}
	}
	return true
}

func setOSDs(t *testing.T, osds []int, change func(int) error) {
	t.Helper()
	for _, id := range osds {
		if err := change(id); err != nil {
			t.Error(err)
		}
	}
}

// TestInlineFailedOverwriteKeepsOldData: an inline overwrite whose new chunk
// cannot be stored (its OSDs are down) fails — and the object still reads as
// before. The old order released the replaced chunk first, so in strict mode
// the failed put left the map bound to a chunk already deleted.
func TestInlineFailedOverwriteKeepsOldData(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.Mode = ModeInline })
	v1 := mkData(0x01, 4096)
	keep := [][]int{actingOSDs(e, e.s.meta, "obj"), actingOSDs(e, e.s.chunk, FingerprintID(v1))}
	var v2 []byte
	var down []int
	for b := byte(2); v2 == nil; b++ {
		if osds := actingOSDs(e, e.s.chunk, FingerprintID(mkData(b, 4096))); disjoint(osds, keep...) {
			v2, down = mkData(b, 4096), osds
		}
	}
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, v1); err != nil {
			t.Error(err)
			return
		}
		setOSDs(t, down, e.c.CrashOSD)
		if err := e.cl.Write(p, "obj", 0, v2); err == nil {
			t.Error("overwrite succeeded with the new chunk's OSDs down")
		}
		setOSDs(t, down, e.c.RestartOSD)
		if got, err := e.cl.Read(p, "obj", 0, -1); err != nil || !bytes.Equal(got, v1) {
			t.Errorf("read after the failed overwrite: err=%v; the old bytes must survive", err)
		}
	})
	e.checkIntegrity(t)
}

// TestSnapshotFailedCloneLeavesNoRefs: the clone's metadata OSDs die once the
// snapshot holds its first claim on the chunk, so the clone's map is never
// written. The claim must go with it: the chunk ends with the source's one
// reference, and deleting the source reclaims it (strict mode has no GC). The
// old snapshot counted the reference first and rolled back only when a later
// reference failed, never when the map write did.
func TestSnapshotFailedCloneLeavesNoRefs(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := mkData(0x51, 4096)
	id := FingerprintID(data)
	keep := [][]int{actingOSDs(e, e.s.meta, "vol"), actingOSDs(e, e.s.chunk, id)}
	var dst string
	var down []int
	for i := 0; dst == ""; i++ {
		if osds := actingOSDs(e, e.s.meta, fmt.Sprintf("vol@%d", i)); disjoint(osds, keep...) {
			dst, down = fmt.Sprintf("vol@%d", i), osds
		}
	}
	// claimed reads the OSD stores directly (no simulated time passes): does
	// any copy of the chunk record a reference or an intent from dst?
	claimed := func() bool {
		for _, osd := range e.c.OSDs() {
			st, _ := e.c.OSDStore(osd)
			keys, _ := st.OmapList(store.Key{Pool: e.s.chunk.ID, OID: id}, 0)
			for _, k := range keys {
				r, ok := parseRefKey(k)
				if !ok {
					r, ok = parseIntentKey(k)
				}
				if ok && r.OID == dst {
					return true
				}
			}
		}
		return false
	}
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "vol", 0, data); err != nil {
			t.Error(err)
			return
		}
		e.s.Engine().DrainAndWait(p)
		snapping := true
		watcher := p.Go("crash-on-claim", func(q *sim.Proc) {
			for snapping && !claimed() {
				q.Sleep(time.Microsecond)
			}
			setOSDs(t, down, e.c.CrashOSD)
		})
		err := e.cl.Snapshot(p, "vol", dst)
		snapping = false
		sim.WaitAll(p, watcher)
		if err == nil {
			t.Error("snapshot succeeded with the clone's metadata OSDs down")
		}
		setOSDs(t, down, e.c.RestartOSD)
		if st := chunkState(t, p, e, e.s.chunk, id); st.count != 1 || len(st.refs) != 1 || len(st.intents) != 0 {
			t.Errorf("chunk after the failed clone: count=%d refs=%d intents=%d, want the source's one reference", st.count, len(st.refs), len(st.intents))
		}
		if err := e.cl.Delete(p, "vol"); err != nil {
			t.Error(err)
		}
		if st := chunkState(t, p, e, e.s.chunk, id); st.exists {
			t.Errorf("chunk outlives its only object: count=%d refs=%d", st.count, len(st.refs))
		}
	})
	e.checkIntegrity(t)
}
