package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
	e.checkScrub(t)
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
	e.at(atAfterRelease, func(*sim.Proc, string) bool {
		if crashes < 2 {
			crashes++
			return true // crash right after the old chunk's de-reference
		}
		return false
	})
	e.drain(t) // crashes twice, requeues, then succeeds
	if crashes != 2 {
		t.Fatalf("point killed %d flushes", crashes)
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
	e.at(atAfterIntent, func(*sim.Proc, string) bool {
		if crashes < 3 {
			crashes++
			return true // crash between chunk-pool write and map update
		}
		return false
	})
	e.drain(t)
	if crashes != 3 {
		t.Fatalf("point killed %d flushes", crashes)
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

// TestCrashStormConverges drives every named point from the seed: at each
// hit a handler drawing only from the engine's random source kills the
// operation (p = 1/4), delays it by up to two intent leases (p = 1/4) or lets
// it pass, while the workload writes, overwrites and deletes objects that
// share chunks and drains with GC passes running alongside. Once the handler
// is gone, draining and reconciling must leave every object reading its last
// written bytes and the reference tables exact. 50 seeds, half in each
// reference mode; one seed of each mode runs twice and must decide alike.
func TestCrashStormConverges(t *testing.T) {
	hits := map[sim.Label]int{}
	for seed := int64(1); seed <= 50; seed++ {
		fp := seed > 25
		log := crashStorm(t, seed, fp, hits)
		if t.Failed() {
			t.Fatalf("seed %d (false-positive refs %v) failed", seed, fp)
		}
		if seed == 1 || seed == 26 {
			if again := crashStorm(t, seed, fp, hits); !slices.Equal(log, again) {
				t.Fatalf("seed %d decided differently on a second run:\n%v\n%v", seed, log, again)
			}
		}
	}
	for _, l := range []sim.Label{atAfterIntent, atAfterBind, atAfterRelease, atBeforeSweep} {
		if hits[l] == 0 {
			t.Errorf("no seed reached %v", l)
		}
	}
}

// crashStorm runs one seed of TestCrashStormConverges, counting each point's
// hits into hits, and returns the handler's (label, key, decision) log.
func crashStorm(t *testing.T, seed int64, fp bool, hits map[sim.Label]int) []string {
	e := newSeededEnv(t, seed, func(cfg *Config) { cfg.FalsePositiveRefs = fp })
	var log []string
	e.eng.SetPoints(func(p *sim.Proc, at sim.Label, key string) bool {
		hits[at]++
		switch p.Rand().Intn(4) {
		case 0:
			log = append(log, fmt.Sprint(at, " ", key, " kill"))
			return true
		case 1:
			d := time.Duration(p.Rand().Int63n(int64(2 * intentLease)))
			log = append(log, fmt.Sprint(at, " ", key, " sleep ", d))
			p.Sleep(d)
		default:
			log = append(log, fmt.Sprint(at, " ", key, " pass"))
		}
		return false
	})

	contents := map[string][]byte{}
	e.run(t, func(p *sim.Proc) {
		blocks := make([][]byte, 4) // every object is built from these: chunks are shared
		for i := range blocks {
			blocks[i] = make([]byte, 4096)
			p.Rand().Read(blocks[i])
		}
		write := func(oid string) {
			data := make([]byte, 0, 3*4096)
			for range 3 {
				data = append(data, blocks[p.Rand().Intn(len(blocks))]...)
			}
			// A write killed after its bind has landed, but its dirty-log
			// append has not: the client sees the error and retries.
			for {
				err := e.cl.Write(p, oid, 0, data)
				if err == nil {
					break
				}
				if !errors.Is(err, errCrash) {
					t.Errorf("write %s: %v", oid, err)
					return
				}
			}
			contents[oid] = data
		}
		drainWithGC := func() {
			draining := true
			gc := p.Go("gc", func(q *sim.Proc) {
				for draining {
					if _, err := e.s.GC(q); err != nil && !errors.Is(err, errCrash) {
						t.Errorf("gc during the drain: %v", err)
					}
					q.Sleep(100 * time.Millisecond)
				}
			})
			e.s.Engine().DrainAndWait(p)
			draining = false
			sim.WaitAll(p, gc)
		}
		for i := range 6 {
			write(fmt.Sprintf("obj-%d", i))
		}
		drainWithGC()
		for i := range 3 {
			write(fmt.Sprintf("obj-%d", 2*i)) // overwrite
		}
		for _, oid := range []string{"obj-1", "obj-5"} {
			if err := e.cl.Delete(p, oid); err != nil {
				t.Errorf("delete %s: %v", oid, err)
			}
			delete(contents, oid)
		}
		write("obj-6")
		drainWithGC()

		// The storm is over: reconcile and require a spotless state.
		e.eng.SetPoints(nil)
		e.s.Engine().DrainAndWait(p)
		p.Sleep(intentLease + time.Second)
		if _, err := e.s.Audit(p); err != nil {
			t.Error(err)
		}
		for pass := 1; pass <= 2; pass++ {
			st, err := e.s.GC(p)
			if err != nil || (pass == 2 && st.StaleRefs != 0) {
				t.Errorf("gc pass %d: err=%v %+v", pass, err, st)
			}
		}
		if rep, err := e.s.Scrub(p); err != nil || !rep.Clean() {
			t.Errorf("scrub: err=%v issues=%v", err, rep.Issues)
		}
		for oid, want := range contents {
			if got, err := e.cl.Read(p, oid, 0, -1); err != nil || !bytes.Equal(got, want) {
				t.Errorf("object %s corrupt after the storm: %v", oid, err)
			}
		}
	})
	e.checkScrub(t)
	return log
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
	return e.c.Map().ActingSet(e.c.PGOf(pool, oid), pool.Red.Width())
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
	e.checkScrub(t)
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
	// any copy of the chunk record a reference or an intent from dst's one
	// slot?
	claimed := func() bool {
		ref := e.s.refAt(dst, 0)
		for _, osd := range e.c.OSDs() {
			st, _ := e.c.OSDStore(osd)
			keys, _ := st.OmapList(store.Key{Pool: e.s.chunk.ID, OID: id}, 0)
			if slices.Contains(keys, ref.Key()) || slices.Contains(keys, ref.IntentKey()) {
				return true
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
		if st := chunkState(t, p, e, e.s.chunk, id); len(st.refs) != 1 || len(st.intents) != 0 {
			t.Errorf("chunk after the failed clone: refs=%d intents=%d, want the source's one reference", len(st.refs), len(st.intents))
		}
		if err := e.cl.Delete(p, "vol"); err != nil {
			t.Error(err)
		}
		if st := chunkState(t, p, e, e.s.chunk, id); st.exists {
			t.Errorf("chunk outlives its only object: refs=%d", len(st.refs))
		}
	})
	e.checkScrub(t)
}

// TestDirtyAppendSurvivesUnavailability: a client write's dirty-list append
// that meets a transiently unavailable OSD is retried, not dropped. Dropped,
// it strands the object's dirty slots, since no drain or worker revisits an
// object its PG's dirty list does not name.
func TestDirtyAppendSurvivesUnavailability(t *testing.T) {
	e := crashEnv(t)
	// An object whose dirty list's primary serves no copy of the object
	// itself, so the armed failure meets the append and not the bind.
	var oid string
	var prim int
	for i := 0; oid == ""; i++ {
		cand := fmt.Sprintf("obj%d", i)
		list := actingOSDs(e, e.s.meta, e.s.dirtyListOID(cand))
		if disjoint(list[:1], actingOSDs(e, e.s.meta, cand)) {
			oid, prim = cand, list[0]
		}
	}
	st, _ := e.c.OSDStore(prim)
	data := bytes.Repeat([]byte("dirty-append"), 1000)
	e.run(t, func(p *sim.Proc) {
		st.FailApplies(1, rados.ErrOSDDown)
		if err := e.cl.Write(p, oid, 0, data); err != nil {
			t.Error(err)
		}
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		cm, err := e.s.readChunkMap(p, e.s.hostGW(anyHost(e.s)), oid)
		if err != nil {
			t.Fatal(err)
		}
		if d := cm.DirtyEntries(); len(d) != 0 {
			t.Errorf("%d slots of %s still dirty after a drain: the dirty-list append was lost", len(d), oid)
		}
	})
}
