package rados

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dedupstore/internal/fpindex"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

// smallFPConfig flushes and compacts aggressively so a few hundred objects
// exercise WAL, tables, and merges.
func smallFPConfig() fpindex.Config {
	return fpindex.Config{
		Enabled:       true,
		MemtableBytes: 2 << 10,
		BlockBytes:    512,
		CacheBytes:    8 << 10,
		BloomFP:       0.01,
		LevelFanout:   3,
	}
}

// runFP drives fn to completion, tolerating the per-OSD compaction daemons
// that stay parked between runs (one per OSD, counted after fn has run so
// fn may add OSDs).
func runFP(t *testing.T, c *Cluster, fn func(p *sim.Proc)) {
	t.Helper()
	var procErr error
	c.eng.Go("test", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				procErr = fmt.Errorf("panic: %v", r)
			}
		}()
		fn(p)
	})
	if left, daemons := c.eng.Run(), len(c.OSDs()); left != daemons {
		t.Fatalf("%d processes left blocked (want %d compaction daemons)", left, daemons)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
}

// checkLockstep asserts every OSD's index agrees exactly with its store's
// key set for the indexed pool.
func checkLockstep(t *testing.T, c *Cluster, pool *Pool) {
	t.Helper()
	for _, id := range c.OSDs() {
		o := c.osds[id]
		if o.fpidx == nil {
			t.Fatalf("osd %d has no index", id)
		}
		want := make(map[string]bool)
		for _, key := range o.store.Keys() {
			if key.Pool == pool.ID {
				want[key.OID] = true
			}
		}
		got := o.fpidx.Keys()
		if len(got) != len(want) {
			t.Fatalf("osd %d: index holds %d keys, store holds %d", id, len(got), len(want))
		}
		for _, k := range got {
			if !want[k] {
				t.Fatalf("osd %d: index key %q not in store", id, k)
			}
		}
	}
	if n := c.Metrics().Counter("fpindex_lookup_mismatch_total").Value(); n != 0 {
		t.Fatalf("index/store disagreed on %d probes", n)
	}
}

func TestFPIndexLockstepWithStore(t *testing.T) {
	eng := sim.New(7)
	c := NewTestbed(eng, simcost.Default(), 2, 2)
	pool, err := c.CreatePool(PoolConfig{Name: "chunks", PGNum: 32, Redundancy: ReplicatedN(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableFPIndex(pool, smallFPConfig()); err != nil {
		t.Fatal(err)
	}
	gw := c.NewGateway("client0")
	oid := func(i int) string { return fmt.Sprintf("chk.%08x", i*2654435761) }
	runFP(t, c, func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			if err := gw.WriteFull(p, pool, oid(i), make([]byte, 512)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 300; i += 3 {
			if err := gw.Delete(p, pool, oid(i)); err != nil {
				t.Errorf("delete %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 300; i++ {
			ok, err := gw.Exists(p, pool, oid(i))
			if err != nil {
				t.Errorf("exists %d: %v", i, err)
				return
			}
			if want := i%3 != 0; ok != want {
				t.Errorf("exists(%d) = %v, want %v", i, ok, want)
				return
			}
		}
		// Direct probes at the acting primary (the experiment's fast path).
		for i := 1; i < 300; i += 3 {
			found, err := c.FPLookup(p, oid(i))
			if err != nil || !found {
				t.Errorf("FPLookup(%d) = %v, %v", i, found, err)
				return
			}
		}
		if found, _ := c.FPLookup(p, "chk.absent"); found {
			t.Error("FPLookup found an absent fingerprint")
		}
	})
	checkLockstep(t, c, pool)
	st := c.FPIndexStats()
	if st.Flushes == 0 {
		t.Fatalf("no memtable flushes across 300 objects: %+v", st)
	}
	if st.Lookups == 0 || st.BloomChecks == 0 {
		t.Fatalf("index never consulted: %+v", st)
	}
	if st.ReadBytes == 0 || st.WriteBytes == 0 {
		t.Fatalf("no modeled index I/O charged: reads=%d writes=%d", st.ReadBytes, st.WriteBytes)
	}
}

func TestFPIndexCrashRestartPeering(t *testing.T) {
	eng := sim.New(11)
	c := NewTestbed(eng, simcost.Default(), 2, 2)
	pool, err := c.CreatePool(PoolConfig{Name: "chunks", PGNum: 32, Redundancy: ReplicatedN(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableFPIndex(pool, smallFPConfig()); err != nil {
		t.Fatal(err)
	}
	gw := c.NewGateway("client0")
	oid := func(i int) string { return fmt.Sprintf("chk.%08x", i*40503) }
	victim := c.OSDs()[0]
	runFP(t, c, func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			if err := gw.WriteFull(p, pool, oid(i), make([]byte, 256)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		if err := c.CrashOSD(victim); err != nil {
			t.Errorf("crash: %v", err)
			return
		}
		// Writes and deletes the victim misses while down.
		for i := 120; i < 180; i++ {
			_ = gw.WriteFull(p, pool, oid(i), make([]byte, 256))
		}
		for i := 0; i < 60; i += 2 {
			_ = gw.Delete(p, pool, oid(i))
		}
		if err := c.RestartOSD(victim); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
	})
	// After restart peering (store wipe of missed keys + index recovery +
	// tombstones) every OSD's index must still match its store exactly.
	checkLockstep(t, c, pool)
}

func TestFPIndexReplaceOSDResets(t *testing.T) {
	eng := sim.New(13)
	c := NewTestbed(eng, simcost.Default(), 2, 2)
	pool, err := c.CreatePool(PoolConfig{Name: "chunks", PGNum: 32, Redundancy: ReplicatedN(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableFPIndex(pool, smallFPConfig()); err != nil {
		t.Fatal(err)
	}
	gw := c.NewGateway("client0")
	runFP(t, c, func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			_ = gw.WriteFull(p, pool, fmt.Sprintf("chk.%d", i), make([]byte, 256))
		}
	})
	victim := c.OSDs()[1]
	if _, err := c.ReplaceOSD(victim); err != nil {
		t.Fatal(err)
	}
	runFP(t, c, func(p *sim.Proc) {
		c.Recover(p)
	})
	checkLockstep(t, c, pool)
}

// fpEnv is the 4-host × 4-OSD testbed with a fingerprint-indexed replicated
// pool and an (unindexable) EC 2+1 pool beside it.
type fpEnv struct {
	c    *Cluster
	pool *Pool
	ecp  *Pool
	gw   *Gateway
}

func newFPEnv(t *testing.T) *fpEnv {
	t.Helper()
	c := NewTestbed(sim.New(17), simcost.Default(), 4, 4)
	pool, err := c.CreatePool(PoolConfig{Name: "chunks", PGNum: 64, Redundancy: ReplicatedN(2)})
	if err != nil {
		t.Fatal(err)
	}
	ecp, err := c.CreatePool(PoolConfig{Name: "ecp", PGNum: 64, Redundancy: ErasureKM(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableFPIndex(pool, smallFPConfig()); err != nil {
		t.Fatal(err)
	}
	return &fpEnv{c: c, pool: pool, ecp: ecp, gw: c.NewGateway("client0")}
}

func chunkOID(i int) string { return fmt.Sprintf("chk.%d", i) }

// rewrite overwrites chunk objects [0, n) with fill bytes. Writes whose
// primary is dead fail retryably; the callers only need the ones that land.
func (e *fpEnv) rewrite(p *sim.Proc, n int, fill byte) {
	for i := 0; i < n; i++ {
		_ = e.gw.WriteFull(p, e.pool, chunkOID(i), bytes.Repeat([]byte{fill}, 1024))
	}
}

func (e *fpEnv) counter(name string) int64 { return e.c.Metrics().Counter(name).Value() }

// wipedReplica crashes the replica of chunk 0, overwrites every chunk so the
// victim misses the updates, and restarts it: peering wipes the missed keys,
// leaving primaries that hold objects their replica lacks.
func (e *fpEnv) wipedReplica(t *testing.T, p *sim.Proc, n int) {
	victim := e.c.acting(e.pool, e.c.PGOf(e.pool, chunkOID(0)))[1].id
	if err := e.c.CrashOSD(victim); err != nil {
		t.Error(err)
	}
	e.rewrite(p, n, 0x22)
	if err := e.c.RestartOSD(victim); err != nil {
		t.Error(err)
	}
}

// TestFPIndexLockstepTransitions drives every store transition that goes
// through the osd mutation seam beyond plain write/delete, restart peering
// and replace→recover (covered above), and checks after each that every
// OSD's index still equals its store's key set for the indexed pool.
func TestFPIndexLockstepTransitions(t *testing.T) {
	const n = 64
	cases := []struct {
		name string
		// drive performs the transition and reports an error if the path
		// under test did not actually run.
		drive func(t *testing.T, e *fpEnv, p *sim.Proc) error
	}{
		{"scrub repair of a dropped replica", func(t *testing.T, e *fpEnv, p *sim.Proc) error {
			e.wipedReplica(t, p, n)
			if st := e.c.Scrub(p, e.pool, true); st.Repaired == 0 {
				return fmt.Errorf("repair scrub fixed nothing: %+v", st)
			}
			return nil
		}},
		{"heal-on-write after a restart wipe", func(t *testing.T, e *fpEnv, p *sim.Proc) error {
			e.wipedReplica(t, p, n)
			e.rewrite(p, n, 0x33)
			if e.counter("rados_replica_heals_total") == 0 {
				return fmt.Errorf("no replica was healed")
			}
			return nil
		}},
		{"pull-on-demand at a freshly remapped primary", func(t *testing.T, e *fpEnv, p *sim.Proc) error {
			if err := e.c.FailOSD(e.c.acting(e.pool, e.c.PGOf(e.pool, chunkOID(0)))[0].id); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if err := e.gw.Write(p, e.pool, chunkOID(i), 16, []byte{0x44}); err != nil {
					return err
				}
			}
			if e.counter("rados_ondemand_pulls_total") == 0 {
				return fmt.Errorf("no object was pulled on demand")
			}
			return nil
		}},
		{"diverged-replica quarantine", func(t *testing.T, e *fpEnv, p *sim.Proc) error {
			replica := e.c.acting(e.pool, e.c.PGOf(e.pool, chunkOID(0)))[1]
			replica.store.FailApplies(1, errors.New("replica diverged"))
			if err := e.gw.WriteFull(p, e.pool, chunkOID(0), []byte("update")); err != nil {
				return err
			}
			if e.counter("rados_replica_diverged_total") != 1 || replica.store.Exists(storeKeyFor(e.pool, chunkOID(0))) {
				return fmt.Errorf("diverged copy not quarantined")
			}
			return nil
		}},
		{"stray cleanup by reconcileMissed", func(t *testing.T, e *fpEnv, p *sim.Proc) error {
			// Marked out but still running: the victim keeps stale copies the
			// next write of each key must delete.
			victim := e.c.acting(e.pool, e.c.PGOf(e.pool, chunkOID(0)))[0]
			held := victim.store.Usage().Objects
			if err := e.c.FailOSD(victim.id); err != nil {
				return err
			}
			e.rewrite(p, n, 0x55)
			if left := victim.store.Usage().Objects; held == 0 || left != 0 {
				return fmt.Errorf("victim held %d objects, %d strays left", held, left)
			}
			return nil
		}},
		{"recovery delete of an out-of-map holder", func(t *testing.T, e *fpEnv, p *sim.Proc) error {
			e.c.AddHost("host4", 12)
			for d := 0; d < 4; d++ {
				if err := e.c.AddOSD(16+d, "host4", 1.0); err != nil {
					return err
				}
			}
			if st := e.c.Recover(p); st.ObjectsCopied == 0 || st.ObjectsDeleted == 0 {
				return fmt.Errorf("rebalance moved nothing: %+v", st)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := newFPEnv(t)
			runFP(t, e.c, func(p *sim.Proc) {
				e.rewrite(p, n, 0x11)
				if err := tc.drive(t, e, p); err != nil {
					t.Error(err)
				}
			})
			checkLockstep(t, e.c, e.pool)
			if err := e.c.FPIndexVerify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFPIndexIgnoresErasurePool states the invariant the EC write paths rely
// on: an erasure pool is never indexed, so its shard writes, overwrites,
// deletes and rebuilds go through the same seam without touching the index
// that fronts the replicated pool on the same OSDs.
func TestFPIndexIgnoresErasurePool(t *testing.T) {
	const n = 12
	e := newFPEnv(t)
	runFP(t, e.c, func(p *sim.Proc) { e.rewrite(p, 32, 0x11) })
	before := e.c.FPIndexStats()
	var rec RecoveryStats
	runFP(t, e.c, func(p *sim.Proc) {
		oid := func(i int) string { return fmt.Sprintf("e%d", i) }
		for i := 0; i < n; i++ {
			if err := e.gw.WriteFull(p, e.ecp, oid(i), bytes.Repeat([]byte{byte(i + 1)}, 9000)); err != nil {
				t.Errorf("ec write %d: %v", i, err)
				return
			}
			if err := e.gw.Write(p, e.ecp, oid(i), 100, bytes.Repeat([]byte{0xEE}, 500)); err != nil {
				t.Errorf("ec overwrite %d: %v", i, err)
				return
			}
		}
		for i := 0; i < n; i += 4 {
			if err := e.gw.Delete(p, e.ecp, oid(i)); err != nil {
				t.Errorf("ec delete %d: %v", i, err)
				return
			}
		}
		// A shard holder misses EC rewrites while crashed; peering wipes its
		// stale shards on restart and Recover rebuilds them from the others.
		victim := e.c.want(e.ecp, e.c.PGOf(e.ecp, oid(1)))[1].id
		if err := e.c.CrashOSD(victim); err != nil {
			t.Error(err)
		}
		for i := 1; i < n; i++ {
			_ = e.gw.WriteFull(p, e.ecp, oid(i), bytes.Repeat([]byte{byte(i + 101)}, 9000))
		}
		if err := e.c.RestartOSD(victim); err != nil {
			t.Error(err)
		}
		rec = e.c.Recover(p)
	})
	if rec.ShardsRebuilt == 0 {
		t.Fatalf("no EC shard was rebuilt: %+v", rec)
	}
	after := e.c.FPIndexStats()
	if after.Inserts != before.Inserts || after.Deletes != before.Deletes {
		t.Fatalf("EC traffic moved the index: inserts %d→%d, deletes %d→%d",
			before.Inserts, after.Inserts, before.Deletes, after.Deletes)
	}
	checkLockstep(t, e.c, e.pool)
	if err := e.c.FPIndexVerify(); err != nil {
		t.Fatal(err)
	}
}

func TestFPIndexRejectsErasurePools(t *testing.T) {
	eng := sim.New(1)
	c := NewTestbed(eng, simcost.Default(), 2, 2)
	ecp, err := c.CreatePool(PoolConfig{Name: "ecp", PGNum: 32, Redundancy: ErasureKM(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableFPIndex(ecp, smallFPConfig()); err == nil {
		t.Fatal("EnableFPIndex accepted an erasure pool")
	}
}

func TestFPIndexMetricsPublished(t *testing.T) {
	eng := sim.New(3)
	c := NewTestbed(eng, simcost.Default(), 2, 2)
	pool, _ := c.CreatePool(PoolConfig{Name: "chunks", PGNum: 32, Redundancy: ReplicatedN(2)})
	if err := c.EnableFPIndex(pool, smallFPConfig()); err != nil {
		t.Fatal(err)
	}
	gw := c.NewGateway("client0")
	runFP(t, c, func(p *sim.Proc) {
		for i := 0; i < 150; i++ {
			_ = gw.WriteFull(p, pool, fmt.Sprintf("chk.%d", i), make([]byte, 256))
		}
		for i := 0; i < 150; i++ {
			_, _ = gw.Exists(p, pool, fmt.Sprintf("chk.%d", i))
		}
	})
	dump := c.DumpMetrics()
	for _, want := range []string{
		"fpindex_lookups_total", "fpindex_inserts_total", "fpindex_entries",
		"fpindex_bloom_checks_total", "fpindex_cache_hit_ppm",
		"fpindex_bloom_fp_observed_ppm", "fpindex_compactions_total",
	} {
		if !containsMetric(dump, want) {
			t.Fatalf("metric %q missing from dump", want)
		}
	}
	// Trace spans: index probes record under their own span name.
	found := false
	for _, sp := range c.Trace().Recent(4096) {
		if sp.Name == "fpindex.lookup" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no fpindex.lookup trace spans recorded")
	}
}

func containsMetric(dump, name string) bool {
	for i := 0; i+len(name) <= len(dump); i++ {
		if dump[i:i+len(name)] == name {
			return true
		}
	}
	return false
}
