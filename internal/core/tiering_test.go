package core

import (
	"bytes"
	"testing"
	"time"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// mkData returns size bytes of a repeating one-byte pattern.
func mkData(b byte, size int) []byte { return bytes.Repeat([]byte{b}, size) }

// newTierEnv builds a store with adaptive tiering on and a fast hitset
// clock: one access in the open slice grades warm, accesses in two
// consecutive slices grade hot, and ~600ms of silence grades cold.
func newTierEnv(t *testing.T, mutate func(*Config)) *env {
	t.Helper()
	return newDedupEnv(t, func(cfg *Config) {
		cfg.Tiering = DefaultTiering()
		cfg.HitSet.Period = 100 * time.Millisecond
		cfg.HitSet.Retain = 4
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// coolDown sleeps long enough that every retained hitset slice rolls away.
func coolDown(p *sim.Proc) { p.Sleep(700 * time.Millisecond) }

// heat records accesses in two consecutive slices, grading oid hot.
func heat(p *sim.Proc, e *env, oid string) {
	e.s.cache.RecordAccessTenant(p.Now(), oid, "")
	p.Sleep(110 * time.Millisecond)
	e.s.cache.RecordAccessTenant(p.Now(), oid, "")
}

// entries reads oid's chunk map.
func entries(t *testing.T, p *sim.Proc, e *env, oid string) []Entry {
	t.Helper()
	gw := e.s.hostGW(anyHost(e.s))
	raw, err := gw.GetXattr(p, e.s.meta, oid, XattrChunkMap)
	if err != nil {
		t.Fatalf("chunk map of %s: %v", oid, err)
	}
	cm, err := UnmarshalChunkMap(raw)
	if err != nil {
		t.Fatal(err)
	}
	return cm.Entries
}

// checkClean runs the full reconciliation battery and requires a spotless
// result: a clean audit, zero stale references on a repeat GC, and a clean
// scrub across both chunk pools.
func checkClean(t *testing.T, p *sim.Proc, e *env) {
	t.Helper()
	if rep, err := e.s.Scrub(p); err != nil || !rep.Clean() {
		t.Fatalf("scrub: err=%v issues=%v", err, rep.Issues)
	}
	if st, err := e.s.Audit(p); err != nil || !st.Clean() {
		t.Fatalf("audit not clean: err=%v %+v", err, st)
	}
	if st, err := e.s.GC(p); err != nil || st.StaleRefs != 0 {
		t.Fatalf("gc found stale refs: err=%v %+v", err, st)
	}
}

func TestTieringOpenValidation(t *testing.T) {
	c := newTestCluster(sim.New(3))
	cfg := DefaultConfig()
	cfg.Tiering = DefaultTiering()
	cfg.Mode = ModeInline
	if _, err := Open(c, cfg); err == nil {
		t.Fatal("tiering with inline mode should be rejected")
	}

	c2 := newTestCluster(sim.New(3))
	cfg = DefaultConfig()
	cfg.Tiering = DefaultTiering()
	s, err := Open(c2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.ColdChunkPool() == nil {
		t.Fatal("tiering enabled but no cold pool")
	}
	if got := s.ColdChunkPool().Name; got != "chunkcold" {
		t.Fatalf("cold pool name = %q", got)
	}
	if got := s.ColdChunkPool().Red; got != rados.ErasureKM(2, 1) {
		t.Fatalf("cold redundancy = %+v", got)
	}
	if !s.Cache().Adaptive() {
		t.Fatal("tiering should put the policy in adaptive mode")
	}
}

// TestFlushLandsByTemperature: the flush engine places chunks in the pool
// the object's temperature selects — cold objects erasure-code, warm ones
// replicate.
func TestFlushLandsByTemperature(t *testing.T) {
	e := newTierEnv(t, nil)
	coldData := mkData(0xC0, 8192)
	warmData := mkData(0xAA, 8192)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "coldobj", 0, coldData); err != nil {
			t.Fatal(err)
		}
		coolDown(p) // coldobj's write-time access rolls out of every slice
		if err := e.cl.Write(p, "warmobj", 0, warmData); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p)
		for _, en := range entries(t, p, e, "coldobj") {
			if !en.Cold {
				t.Errorf("coldobj slot %d: flushed warm, want cold", en.Start)
			}
		}
		for _, en := range entries(t, p, e, "warmobj") {
			if en.Cold {
				t.Errorf("warmobj slot %d: flushed cold, want warm", en.Start)
			}
		}
		if n := len(e.c.ListObjects(e.s.ColdChunkPool())); n == 0 {
			t.Error("no chunk objects in the cold pool")
		}
		for _, oid := range []string{"coldobj", "warmobj"} {
			want := coldData
			if oid == "warmobj" {
				want = warmData
			}
			got, err := e.cl.Read(p, oid, 0, -1)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: read mismatch after flush (err=%v)", oid, err)
			}
		}
		checkClean(t, p, e)
	})
}

// TestTierPassLifecycle drives one object through the full temperature
// cycle — warm placement, demotion to EC, promotion back to the replicated
// pool, recache to the hot form, and re-dedup — verifying pool residency,
// data integrity, and reconciler cleanliness at every step.
func TestTierPassLifecycle(t *testing.T) {
	e := newTierEnv(t, nil)
	data := mkData(0x5A, 8192) // two 4 KiB chunks
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p) // warm at flush time → warm pool
		for _, en := range entries(t, p, e, "obj") {
			if en.Cold || en.ChunkID == "" {
				t.Fatalf("expected warm bound slot, got %+v", en)
			}
		}

		// Cool → demote: chunks move into the EC pool, the warm copies die.
		coolDown(p)
		ps, err := e.s.TierPass(p)
		if err != nil {
			t.Fatal(err)
		}
		if ps.DemotedChunks != 2 {
			t.Fatalf("DemotedChunks = %d, want 2", ps.DemotedChunks)
		}
		for _, en := range entries(t, p, e, "obj") {
			if !en.Cold {
				t.Fatalf("slot %d not demoted", en.Start)
			}
		}
		if n := len(e.c.ListObjects(e.s.chunk)); n != 0 {
			t.Fatalf("%d chunk objects left in the warm pool after demote", n)
		}
		if got, _ := e.cl.Read(p, "obj", 0, -1); !bytes.Equal(got, data) {
			t.Fatal("read mismatch after demote")
		}
		checkClean(t, p, e)

		// One access → warm → promote back into the replicated pool.
		coolDown(p)
		e.s.cache.RecordAccessTenant(p.Now(), "obj", "")
		ps, err = e.s.TierPass(p)
		if err != nil {
			t.Fatal(err)
		}
		if ps.PromotedChunks != 2 {
			t.Fatalf("PromotedChunks = %d, want 2", ps.PromotedChunks)
		}
		for _, en := range entries(t, p, e, "obj") {
			if en.Cold {
				t.Fatalf("slot %d not promoted", en.Start)
			}
		}
		if n := len(e.c.ListObjects(e.s.coldChunk)); n != 0 {
			t.Fatalf("%d chunk objects left in the cold pool after promote", n)
		}
		checkClean(t, p, e)

		// Heat → recache: bindings drop, bytes come home, chunks are freed.
		heat(p, e, "obj")
		ps, err = e.s.TierPass(p)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Recaches != 1 {
			t.Fatalf("Recaches = %d, want 1", ps.Recaches)
		}
		for _, en := range entries(t, p, e, "obj") {
			if en.ChunkID != "" || !en.Cached {
				t.Fatalf("slot %d not recached: %+v", en.Start, en)
			}
		}
		if n := len(e.c.ListObjects(e.s.chunk)) + len(e.c.ListObjects(e.s.coldChunk)); n != 0 {
			t.Fatalf("%d chunk objects survive a full recache", n)
		}
		if got, _ := e.cl.Read(p, "obj", 0, -1); !bytes.Equal(got, data) {
			t.Fatal("read mismatch after recache")
		}
		checkClean(t, p, e)

		// Cool again → rededup: slots go back to the dedup engine, which
		// lands them straight in the EC pool (the object is cold by then).
		coolDown(p)
		ps, err = e.s.TierPass(p)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Rededups != 1 {
			t.Fatalf("Rededups = %d, want 1", ps.Rededups)
		}
		e.s.Engine().DrainAndWait(p)
		for _, en := range entries(t, p, e, "obj") {
			if en.ChunkID == "" || !en.Cold {
				t.Fatalf("slot %d not re-deduplicated cold: %+v", en.Start, en)
			}
		}
		if got, _ := e.cl.Read(p, "obj", 0, -1); !bytes.Equal(got, data) {
			t.Fatal("read mismatch after rededup")
		}
		checkClean(t, p, e)

		// Totals accumulated across the whole lifecycle.
		tot := e.s.TierStats()
		if tot.Passes != 4 || tot.DemotedChunks != 2 || tot.PromotedChunks != 2 || tot.Recaches != 1 || tot.Rededups != 1 {
			t.Fatalf("unexpected totals: %+v", tot)
		}
		census, _ := e.s.TierCensus()
		var objs int64
		for _, n := range census.Objects {
			objs += n
		}
		if objs != 1 {
			t.Fatalf("census counted %d objects, want 1", objs)
		}
	})
}

// TestTierSharedChunkAcrossPools: two objects share a fingerprint; one goes
// cold and is demoted while the other stays warm. The same fingerprint must
// then live in both pools, each copy carrying only its own references.
func TestTierSharedChunkAcrossPools(t *testing.T) {
	e := newTierEnv(t, nil)
	shared := mkData(0x77, 4096)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "sleeper", 0, shared); err != nil {
			t.Fatal(err)
		}
		if err := e.cl.Write(p, "worker", 0, shared); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p) // both warm: one shared chunk, 2 refs
		if n := len(e.c.ListObjects(e.s.chunk)); n != 1 {
			t.Fatalf("%d warm chunks, want 1 (shared)", n)
		}
		coolDown(p)
		e.s.cache.RecordAccessTenant(p.Now(), "worker", "") // keep one side warm
		ps, err := e.s.TierPass(p)
		if err != nil {
			t.Fatal(err)
		}
		if ps.DemotedChunks != 1 {
			t.Fatalf("DemotedChunks = %d, want 1", ps.DemotedChunks)
		}
		if n := len(e.c.ListObjects(e.s.chunk)); n != 1 {
			t.Fatalf("warm copy vanished though worker still references it (%d chunks)", n)
		}
		if n := len(e.c.ListObjects(e.s.coldChunk)); n != 1 {
			t.Fatalf("%d cold chunks, want 1", n)
		}
		for _, oid := range []string{"sleeper", "worker"} {
			got, err := e.cl.Read(p, oid, 0, -1)
			if err != nil || !bytes.Equal(got, shared) {
				t.Fatalf("%s: read mismatch (err=%v)", oid, err)
			}
		}
		checkClean(t, p, e)
	})
}

// TestTierMigrateCrashAfterIntent: a migration dying between phase 1 and
// the binding flip leaves an orphan intent on the destination pool. The
// lease expires, GC aborts it, and a later pass completes the move.
func TestTierMigrateCrashAfterIntent(t *testing.T) {
	e := newTierEnv(t, nil)
	data := mkData(0x11, 4096)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p)
		coolDown(p)
		e.s.hooks.afterIntent = func(string) bool { return true }
		ps, err := e.s.TierPass(p)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Errors != 1 || ps.DemotedChunks != 0 {
			t.Fatalf("crashed pass: %+v", ps)
		}
		e.s.hooks.afterIntent = nil
		for _, en := range entries(t, p, e, "obj") {
			if en.Cold {
				t.Fatal("binding moved despite the crash")
			}
		}
		// Post-mortem: lease expiry, then the reconcilers.
		p.Sleep(intentLease + time.Second)
		gcStats, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if gcStats.IntentsAborted == 0 {
			t.Fatalf("expected an aborted orphan intent: %+v", gcStats)
		}
		checkClean(t, p, e)
		// The object is still cold; the next pass finishes the demotion.
		if ps, err = e.s.TierPass(p); err != nil || ps.DemotedChunks != 1 {
			t.Fatalf("retry pass: err=%v %+v", err, ps)
		}
		if got, _ := e.cl.Read(p, "obj", 0, -1); !bytes.Equal(got, data) {
			t.Fatal("read mismatch after recovery")
		}
		checkClean(t, p, e)
	})
}

// TestTierMigrateCrashAfterBind: a migration dying between the binding flip
// and commit/de-reference leaves (a) an uncommitted intent on the
// destination that the audit promotes, and (b) a stale committed reference
// on the source that GC sweeps. No data is lost and no issue survives.
func TestTierMigrateCrashAfterBind(t *testing.T) {
	e := newTierEnv(t, nil)
	data := mkData(0x22, 4096)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p)
		coolDown(p)
		e.s.hooks.afterBind = func(string) bool { return true }
		ps, err := e.s.TierPass(p)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Errors != 1 {
			t.Fatalf("crashed pass: %+v", ps)
		}
		e.s.hooks.afterBind = nil
		for _, en := range entries(t, p, e, "obj") {
			if !en.Cold {
				t.Fatal("binding should have flipped before the crash")
			}
		}
		p.Sleep(intentLease + time.Second)
		auditStats, err := e.s.Audit(p)
		if err != nil {
			t.Fatal(err)
		}
		if auditStats.IntentsPromoted == 0 {
			t.Fatalf("expected the audit to promote the orphan intent: %+v", auditStats)
		}
		gcStats, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if gcStats.StaleRefs == 0 {
			t.Fatalf("expected GC to sweep the stale source reference: %+v", gcStats)
		}
		if got, _ := e.cl.Read(p, "obj", 0, -1); !bytes.Equal(got, data) {
			t.Fatal("read mismatch after recovery")
		}
		checkClean(t, p, e)
	})
}

// TestTierRecacheCrashAfterBind: a recache dying after the binding swap but
// before the de-references leaves stale references on the chunks. GC's mark
// pass sees no binding and sweeps them; the recached bytes are intact.
func TestTierRecacheCrashAfterBind(t *testing.T) {
	e := newTierEnv(t, nil)
	data := mkData(0x33, 8192)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p)
		heat(p, e, "obj")
		e.s.hooks.afterBind = func(string) bool { return true }
		ps, err := e.s.TierPass(p)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Errors != 1 || ps.Recaches != 1 {
			t.Fatalf("crashed pass: %+v", ps)
		}
		e.s.hooks.afterBind = nil
		if got, _ := e.cl.Read(p, "obj", 0, -1); !bytes.Equal(got, data) {
			t.Fatal("read mismatch after crashed recache")
		}
		p.Sleep(intentLease + time.Second)
		gcStats, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if gcStats.StaleRefs != 2 {
			t.Fatalf("StaleRefs = %d, want 2: %+v", gcStats.StaleRefs, gcStats)
		}
		if n := len(e.c.ListObjects(e.s.chunk)); n != 0 {
			t.Fatalf("%d unreferenced chunks survive GC", n)
		}
		checkClean(t, p, e)
	})
}

// TestTierRacedByClientWrite: a client write between a pass's map read and
// the migration's phase 2 invalidates the move — the binding is untouched
// and the destination intent is aborted inline.
func TestTierRacedByClientWrite(t *testing.T) {
	e := newTierEnv(t, nil)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, mkData(0x44, 4096)); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p)
		coolDown(p)
		// The hook fires after phase 1, exactly inside the race window.
		e.s.hooks.afterIntent = func(string) bool {
			done := p.Go("racer", func(q *sim.Proc) {
				if err := e.cl.Write(q, "obj", 0, mkData(0x55, 4096)); err != nil {
					t.Error(err)
				}
			})
			sim.WaitAll(p, done)
			return false // no crash — let phase 2 observe the raced slot
		}
		ps, err := e.s.TierPass(p)
		e.s.hooks.afterIntent = nil
		if err != nil {
			t.Fatal(err)
		}
		if ps.RacedSkips != 1 || ps.DemotedChunks != 0 || ps.Errors != 0 {
			t.Fatalf("raced pass: %+v", ps)
		}
		e.s.Engine().DrainAndWait(p)
		if got, _ := e.cl.Read(p, "obj", 0, -1); !bytes.Equal(got, mkData(0x55, 4096)) {
			t.Fatal("racing write lost")
		}
		checkClean(t, p, e)
	})
}

// TestTieringDaemon: the policy daemon runs passes on its own clock and
// stops on request.
func TestTieringDaemon(t *testing.T) {
	e := newTierEnv(t, func(cfg *Config) { cfg.Tiering.Interval = 200 * time.Millisecond })
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, mkData(0x66, 4096)); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p)
		e.s.StartTieringDaemon()
		if !e.s.TieringDaemonRunning() {
			t.Fatal("daemon did not start")
		}
		p.Sleep(1500 * time.Millisecond) // object cools; daemon demotes it
		e.s.StopTieringDaemon()
		p.Sleep(300 * time.Millisecond)
		if e.s.TieringDaemonRunning() {
			t.Fatal("daemon did not stop")
		}
		if st := e.s.TierStats(); st.Passes == 0 || st.DemotedChunks != 1 {
			t.Fatalf("daemon stats: %+v", st)
		}
		for _, en := range entries(t, p, e, "obj") {
			if !en.Cold {
				t.Fatal("daemon never demoted the cold object")
			}
		}
		checkClean(t, p, e)
	})
}

// TestTieringDisabledUnchanged: with the zero-value config the subsystem is
// inert — no cold pool, boolean hotness, TierPass refuses to run.
func TestTieringDisabledUnchanged(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.run(t, func(p *sim.Proc) {
		if e.s.ColdChunkPool() != nil {
			t.Fatal("cold pool exists with tiering off")
		}
		if e.s.Cache().Adaptive() {
			t.Fatal("adaptive mode on with tiering off")
		}
		if _, err := e.s.TierPass(p); err == nil {
			t.Fatal("TierPass should refuse to run with tiering off")
		}
		e.s.StartTieringDaemon()
		if e.s.TieringDaemonRunning() {
			t.Fatal("daemon started with tiering off")
		}
	})
}
