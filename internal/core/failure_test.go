package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/sim"
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
