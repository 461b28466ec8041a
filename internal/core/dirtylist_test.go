package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// dirtyListing reads, with no simulated time passing, every user object's
// chunk map and its PG's dirty list: it returns the objects holding a dirty
// slot and, of those, the ones no dirty list names: slots no drain or
// worker would ever revisit.
func dirtyListing(t *testing.T, e *env) (dirty, unlisted []string) {
	t.Helper()
	for _, oid := range e.c.ListObjects(e.s.meta) {
		if IsSystemObject(oid) {
			continue
		}
		raw, err := e.cl.gw.PeekXattr(e.s.meta, oid, XattrChunkMap)
		if err != nil {
			t.Errorf("object %s: no chunk map: %v", oid, err)
			continue
		}
		cm, err := UnmarshalChunkMap(raw)
		if err != nil {
			t.Errorf("object %s: %v", oid, err)
			continue
		}
		if len(cm.DirtyEntries()) == 0 {
			continue
		}
		dirty = append(dirty, oid)
		list := e.s.dirtyListOID(oid)
		st, _ := e.c.OSDStore(actingOSDs(e, e.s.meta, list)[0])
		if _, err := st.OmapGet(store.Key{Pool: e.s.meta.ID, OID: list}, oid); err != nil {
			unlisted = append(unlisted, oid)
		}
	}
	return dirty, unlisted
}

// TestDirtyAppendWritesOnTransition: a write's dirty-list append writes the
// list only when the object goes from clean to dirty. Rewrites of a listed
// object leave the list's version and the metadata pool's replica legs
// alone; once a flush claims the object, the next write lists it again.
func TestDirtyAppendWritesOnTransition(t *testing.T) {
	e := newDedupEnv(t, nil)
	const oid = "twice"
	list := e.s.dirtyListOID(oid)
	st, _ := e.c.OSDStore(actingOSDs(e, e.s.meta, list)[0])
	key := store.Key{Pool: e.s.meta.ID, OID: list}
	legs := e.c.Metrics().Histogram("rados_replica_apply:" + metaPoolName)
	listed := e.c.Metrics().Counter("dedup_dirty_append_listed_total")

	// writes writes oid n times, each with its append landed before the
	// next, and reports how often the list's version moved and how many
	// replica legs were not the writes' own binds.
	writes := func(n int) (moved, appendLegs int) {
		l0 := legs.Count()
		for i := range n {
			v := st.Version(key)
			e.run(t, func(p *sim.Proc) {
				if err := e.cl.Write(p, oid, 0, mkData(byte(i), 4096)); err != nil {
					t.Error(err)
				}
			})
			if st.Version(key) != v {
				moved++
			}
		}
		return moved, legs.Count() - l0 - n
	}
	if v, l := writes(4); v != 1 || l != 1 {
		t.Errorf("4 writes of a clean object: list version moved %d times, %d append replica legs; want 1 and 1", v, l)
	}
	if n := listed.Value(); n != 3 {
		t.Errorf("dedup_dirty_append_listed_total = %d after 3 rewrites of a listed object, want 3", n)
	}
	e.run(t, func(p *sim.Proc) {
		if err := e.s.setDirty(p, e.s.hostGW(anyHost(e.s)), oid, false); err != nil {
			t.Error(err)
		}
	})
	if v, l := writes(3); v != 1 || l != 1 {
		t.Errorf("3 writes after a claim: list version moved %d times, %d append replica legs; want 1 and 1", v, l)
	}
}

// TestSkippedAppendFollowsItsBind: the skip is safe only because a write's
// bind commits before its append is issued, so a claim ordered after the
// skipped append reads the new dirty slot. The moment the append is skipped,
// the write's slot must already be dirty in the committed chunk map. The
// write pre-reads its slot from the chunk pool, so a bind issued alongside
// its append would still be in flight.
func TestSkippedAppendFollowsItsBind(t *testing.T) {
	e := newDedupEnv(t, nil)
	const oid = "ordered"
	listed := e.c.Metrics().Counter("dedup_dirty_append_listed_total")
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, oid, 0, mkData(0x11, 2*4096)); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p)
		if err := e.cl.Write(p, oid, 0, mkData(0x22, 4096)); err != nil { // listed again
			t.Fatal(err)
		}
		w := p.Go("rewrite", func(q *sim.Proc) {
			if err := e.cl.Write(q, oid, 4096+100, mkData(0x33, 100)); err != nil {
				t.Error(err)
			}
		})
		for t0 := p.Now(); listed.Value() == 0 && p.Now()-t0 < sim.Time(time.Second); {
			p.Sleep(time.Microsecond)
		}
		if listed.Value() == 0 {
			t.Fatal("the rewrite of a listed object did not skip its append")
		}
		raw, err := e.cl.gw.PeekXattr(e.s.meta, oid, XattrChunkMap)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := UnmarshalChunkMap(raw)
		if err != nil {
			t.Fatal(err)
		}
		if i := cm.Find(4096); i < 0 || !cm.Entries[i].Dirty {
			t.Error("the append was skipped before its write's bind committed: a claim now would miss the new dirty slot")
		}
		sim.WaitAll(p, w)
	})
}

// TestDirtyAppendRacesFlushes: writers rewrite a few objects while the
// engine's workers claim, flush and requeue them, and every write past the
// first to a listed object skips its append. Whenever no flush is in flight
// and the writes' appends have landed, every object with a dirty slot is
// listed; after the drain no slot is dirty, and every object reads its last
// write.
func TestDirtyAppendRacesFlushes(t *testing.T) {
	const (
		seeds   = 10
		writers = 3
		objects = 2 // per writer
		size    = 4 * 4096
		rounds  = 4
	)
	var requeued, skipped int64
	for seed := int64(1); seed <= seeds; seed++ {
		e := newSeededEnv(t, seed, nil)
		e.s.StartEngine()
		want := map[string][]byte{}
		quiescent := func(p *sim.Proc, round int) {
			p.Sleep(100 * time.Millisecond) // the last writes' appends land
			for len(e.s.engine.claimed) > 0 {
				p.Sleep(100 * time.Microsecond)
			}
			if _, unlisted := dirtyListing(t, e); len(unlisted) > 0 {
				t.Errorf("seed %d round %d: dirty but on no dirty list: %v", seed, round, unlisted)
			}
		}
		e.run(t, func(p *sim.Proc) {
			for round := range rounds {
				var sigs []*sim.Signal
				for w := range writers {
					rng := rand.New(rand.NewSource(seed*100 + int64(round*writers+w)))
					sigs = append(sigs, p.Go(fmt.Sprintf("writer%d", w), func(q *sim.Proc) {
						for range 12 {
							oid := fmt.Sprintf("w%d-o%d", w, rng.Intn(objects))
							// Unaligned: a write into a flushed slot pre-reads it.
							off := int64(rng.Intn(size))
							data := make([]byte, 1+rng.Intn(6000))
							rng.Read(data)
							if err := e.cl.Write(q, oid, off, data); err != nil {
								t.Errorf("seed %d: write %s: %v", seed, oid, err)
								continue
							}
							buf := want[oid]
							if end := off + int64(len(data)); end > int64(len(buf)) {
								buf = append(buf, make([]byte, end-int64(len(buf)))...)
							}
							copy(buf[off:], data)
							want[oid] = buf
							q.Sleep(time.Duration(rng.Intn(8000)) * time.Microsecond)
						}
					}))
				}
				sim.WaitAll(p, sigs...)
				quiescent(p, round)
			}
			e.s.Engine().DrainAndWait(p)
		})
		if dirty, _ := dirtyListing(t, e); len(dirty) > 0 {
			t.Errorf("seed %d: dirty slots left after the drain: %v", seed, dirty)
		}
		e.run(t, func(p *sim.Proc) {
			for oid, w := range want {
				if got, err := e.cl.Read(p, oid, 0, -1); err != nil || !bytes.Equal(got, w) {
					t.Errorf("seed %d: %s does not read its last write: %v", seed, oid, err)
				}
			}
		})
		requeued += e.s.Engine().Stats().Requeued
		skipped += e.c.Metrics().Counter("dedup_dirty_append_listed_total").Value()
	}
	t.Logf("over %d seeds: %d requeues, %d skipped appends", seeds, requeued, skipped)
	if requeued == 0 || skipped == 0 {
		t.Errorf("over %d seeds: %d requeues, %d skipped appends; the test must race both", seeds, requeued, skipped)
	}
}

// TestDirtyAppendFailureCounted: an append whose retries all meet the list's
// down acting OSDs is counted in dedup_dirty_append_failed_total, once.
func TestDirtyAppendFailureCounted(t *testing.T) {
	e := crashEnv(t)
	var oid string
	var down []int
	for i := 0; oid == ""; i++ {
		cand := fmt.Sprintf("obj%d", i)
		if list := actingOSDs(e, e.s.meta, e.s.dirtyListOID(cand)); disjoint(list, actingOSDs(e, e.s.meta, cand)) {
			oid, down = cand, list
		}
	}
	failed := e.c.Metrics().Counter("dedup_dirty_append_failed_total")
	e.run(t, func(p *sim.Proc) {
		setOSDs(t, down, e.c.CrashOSD)
		if err := e.cl.Write(p, oid, 0, mkData(0x7a, 4096)); err != nil {
			t.Error(err)
		}
	})
	if n := failed.Value(); n != 1 {
		t.Errorf("dedup_dirty_append_failed_total = %d after one append ran out of retries, want 1", n)
	}
	setOSDs(t, down, e.c.RestartOSD)
}
