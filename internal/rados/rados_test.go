package rados

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
	"dedupstore/internal/store"
)

// testEnv is the paper's 4-host × 4-OSD testbed plus one replicated and one
// EC 2+1 pool.
type testEnv struct {
	eng  *sim.Engine
	c    *Cluster
	rep  *Pool
	ecp  *Pool
	gw   *Gateway
	fail func(error)
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	eng := sim.New(42)
	c := NewTestbed(eng, simcost.Default(), 4, 4)
	rep, err := c.CreatePool(PoolConfig{Name: "rep", PGNum: 64, Redundancy: ReplicatedN(2)})
	if err != nil {
		t.Fatal(err)
	}
	ecp, err := c.CreatePool(PoolConfig{Name: "ecp", PGNum: 64, Redundancy: ErasureKM(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{
		eng: eng, c: c, rep: rep, ecp: ecp,
		gw:   c.NewGateway("client0"),
		fail: func(err error) { t.Helper(); t.Fatal(err) },
	}
}

// run executes fn as a sim process and drives the engine to completion.
func (e *testEnv) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	var procErr error
	e.eng.Go("test", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				procErr = fmt.Errorf("panic: %v", r)
			}
		}()
		fn(p)
	})
	if left := e.eng.Run(); left != 0 {
		t.Fatalf("%d processes left blocked", left)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
	// A shared payload that changed under a store (a no-op without -tags
	// storecheck; `make storecheck` runs with it).
	for _, o := range e.c.osds {
		o.store.CheckShared()
	}
}

func TestPoolCreation(t *testing.T) {
	e := newEnv(t)
	if _, err := e.c.CreatePool(PoolConfig{Name: "rep", Redundancy: ReplicatedN(2)}); err != ErrPoolExists {
		t.Fatalf("duplicate pool err = %v", err)
	}
	if _, err := e.c.CreatePool(PoolConfig{Name: "bad", Redundancy: ReplicatedN(0)}); err == nil {
		t.Fatal("accepted 0 replicas")
	}
	if _, err := e.c.CreatePool(PoolConfig{Name: "bad2"}); err == nil {
		t.Fatal("accepted missing redundancy")
	}
	if _, err := e.c.LookupPool("rep"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.LookupPool("nope"); err != ErrPoolNotFound {
		t.Fatalf("err = %v", err)
	}
}

func TestReplicatedWriteReadRoundTrip(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		data := []byte("hello scale-out world")
		if err := e.gw.WriteFull(p, e.rep, "obj1", data); err != nil {
			e.fail(err)
		}
		got, err := e.gw.Read(p, e.rep, "obj1", 0, -1)
		if err != nil {
			e.fail(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("got %q want %q", got, data)
		}
		part, err := e.gw.Read(p, e.rep, "obj1", 6, 9)
		if err != nil || string(part) != "scale-out" {
			t.Errorf("partial read %q, %v", part, err)
		}
	})
}

func TestReplicatedReplicaCount(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "obj1", make([]byte, 1000)); err != nil {
			e.fail(err)
		}
	})
	// Exactly 2 OSD stores must hold the object.
	holders := 0
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		if st.Exists(store.Key{Pool: e.rep.ID, OID: "obj1"}) {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("object on %d OSDs, want 2", holders)
	}
}

func TestReplicasOnDistinctHosts(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if err := e.gw.WriteFull(p, e.rep, fmt.Sprintf("o%d", i), []byte("x")); err != nil {
				e.fail(err)
			}
		}
	})
	for i := 0; i < 50; i++ {
		hosts := map[string]bool{}
		for _, id := range e.c.OSDs() {
			st, _ := e.c.OSDStore(id)
			if st.Exists(store.Key{Pool: e.rep.ID, OID: fmt.Sprintf("o%d", i)}) {
				info, _ := e.c.Map().Lookup(id)
				if hosts[info.Host] {
					t.Fatalf("object o%d has two replicas on %s", i, info.Host)
				}
				hosts[info.Host] = true
			}
		}
	}
}

func TestPartialWriteAndStat(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.Write(p, e.rep, "obj", 100, []byte("abc")); err != nil {
			e.fail(err)
		}
		n, err := e.gw.Stat(p, e.rep, "obj")
		if err != nil || n != 103 {
			t.Errorf("stat = %d, %v", n, err)
		}
		ok, err := e.gw.Exists(p, e.rep, "obj")
		if err != nil || !ok {
			t.Errorf("exists = %v, %v", ok, err)
		}
	})
}

func TestDeleteReplicated(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.rep, "obj", []byte("x"))
		if err := e.gw.Delete(p, e.rep, "obj"); err != nil {
			e.fail(err)
		}
		if _, err := e.gw.Read(p, e.rep, "obj", 0, -1); err != ErrNotFound {
			t.Errorf("read after delete: %v", err)
		}
	})
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		if st.Exists(store.Key{Pool: e.rep.ID, OID: "obj"}) {
			t.Fatal("replica survived delete")
		}
	}
}

func TestXattrAndOmap(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.rep, "obj", []byte("data"))
		if err := e.gw.SetXattr(p, e.rep, "obj", "chunkmap", []byte{9, 9}); err != nil {
			e.fail(err)
		}
		v, err := e.gw.GetXattr(p, e.rep, "obj", "chunkmap")
		if err != nil || !bytes.Equal(v, []byte{9, 9}) {
			t.Errorf("xattr = %v, %v", v, err)
		}
		if err := e.gw.OmapSet(p, e.rep, "dirtylist", map[string][]byte{"a": []byte("1"), "b": []byte("2")}); err != nil {
			e.fail(err)
		}
		keys, err := e.gw.OmapList(p, e.rep, "dirtylist", 0)
		if err != nil || len(keys) != 2 {
			t.Errorf("omap list = %v, %v", keys, err)
		}
		v, err = e.gw.OmapGet(p, e.rep, "dirtylist", "a")
		if err != nil || string(v) != "1" {
			t.Errorf("omap get = %q, %v", v, err)
		}
	})
}

func TestMutateAtomicRMW(t *testing.T) {
	e := newEnv(t)
	// 20 concurrent increments on a counter xattr must not lose updates
	// (PG lock serializes Mutate).
	e.run(t, func(p *sim.Proc) {
		var sigs []*sim.Signal
		for i := 0; i < 20; i++ {
			sigs = append(sigs, p.Go("inc", func(q *sim.Proc) {
				err := e.gw.Mutate(q, e.rep, "ctr", func(v View) (*store.Txn, error) {
					var n byte
					if cur, err := v.GetXattr("n"); err == nil && len(cur) > 0 {
						n = cur[0]
					}
					return store.NewTxn().Create().SetXattr("n", []byte{n + 1}), nil
				})
				if err != nil {
					e.fail(err)
				}
			}))
		}
		sim.WaitAll(p, sigs...)
		v, err := e.gw.GetXattr(p, e.rep, "ctr", "n")
		if err != nil || len(v) != 1 || v[0] != 20 {
			t.Errorf("counter = %v, %v (lost updates)", v, err)
		}
	})
}

func TestMutateAbortAppliesNothing(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		sentinel := fmt.Errorf("abort")
		err := e.gw.Mutate(p, e.rep, "obj", func(v View) (*store.Txn, error) {
			return store.NewTxn().WriteFull([]byte("should not appear")), sentinel
		})
		if err != sentinel {
			t.Errorf("err = %v", err)
		}
		if ok, _ := e.gw.Exists(p, e.rep, "obj"); ok {
			t.Error("aborted mutate created object")
		}
	})
}

func TestECWriteReadRoundTrip(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 40000) // ~5 stripes at 4K unit, k=2
	rng.Read(data)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, "obj", data); err != nil {
			e.fail(err)
		}
		got, err := e.gw.Read(p, e.ecp, "obj", 0, -1)
		if err != nil {
			e.fail(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("EC round trip mismatch")
		}
		// Range read across stripe boundary.
		part, err := e.gw.Read(p, e.ecp, "obj", 4090, 100)
		if err != nil || !bytes.Equal(part, data[4090:4190]) {
			t.Errorf("EC range read mismatch: %v", err)
		}
		n, err := e.gw.Stat(p, e.ecp, "obj")
		if err != nil || n != int64(len(data)) {
			t.Errorf("EC stat = %d, %v", n, err)
		}
	})
}

func TestECShardPlacement(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, "obj", make([]byte, 10000)); err != nil {
			e.fail(err)
		}
	})
	holders := 0
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		if st.Exists(store.Key{Pool: e.ecp.ID, OID: "obj"}) {
			holders++
		}
	}
	if holders != 3 { // k=2 + m=1
		t.Fatalf("EC object on %d OSDs, want 3", holders)
	}
}

func TestECPartialWriteRMW(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, 20000)
	rng.Read(data)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, "obj", data); err != nil {
			e.fail(err)
		}
		patch := []byte("PATCHED-REGION")
		if err := e.gw.Write(p, e.ecp, "obj", 9000, patch); err != nil {
			e.fail(err)
		}
		copy(data[9000:], patch)
		got, err := e.gw.Read(p, e.ecp, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("EC RMW mismatch: %v", err)
		}
		// Extending partial write.
		if err := e.gw.Write(p, e.ecp, "obj", int64(len(data)), []byte("TAIL")); err != nil {
			e.fail(err)
		}
		n, _ := e.gw.Stat(p, e.ecp, "obj")
		if n != int64(len(data)+4) {
			t.Errorf("size after extend = %d", n)
		}
	})
}

func TestECDegradedRead(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 30000)
	rng.Read(data)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, "obj", data); err != nil {
			e.fail(err)
		}
	})
	// Fail the OSD holding shard 0.
	var failed int = -1
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		key := store.Key{Pool: e.ecp.ID, OID: "obj"}
		if st.Exists(key) {
			if idx := getU64(mustXattr(st, key, xattrECIdx)); idx == 0 {
				failed = id
				break
			}
		}
	}
	if failed < 0 {
		t.Fatal("shard 0 holder not found")
	}
	e.c.Map().SetUp(failed, false)
	e.run(t, func(p *sim.Proc) {
		got, err := e.gw.Read(p, e.ecp, "obj", 0, -1)
		if err != nil {
			e.fail(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("degraded read returned wrong data")
		}
	})
}

func TestECMutateMetadataMirrored(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.ecp, "obj", make([]byte, 5000))
		err := e.gw.Mutate(p, e.ecp, "obj", func(v View) (*store.Txn, error) {
			return store.NewTxn().SetXattr("refcount", []byte{7}).OmapSet("ref.a", []byte("x")), nil
		})
		if err != nil {
			e.fail(err)
		}
		v, err := e.gw.GetXattr(p, e.ecp, "obj", "refcount")
		if err != nil || len(v) != 1 || v[0] != 7 {
			t.Errorf("xattr = %v, %v", v, err)
		}
	})
	// Every shard holder must carry the metadata.
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		key := store.Key{Pool: e.ecp.ID, OID: "obj"}
		if st.Exists(key) {
			if v, err := st.GetXattr(key, "refcount"); err != nil || v[0] != 7 {
				t.Fatalf("shard on osd %d missing mirrored xattr", id)
			}
		}
	}
}

func TestECMutateRejectsPartialDataOps(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.ecp, "obj", make([]byte, 100))
		err := e.gw.Mutate(p, e.ecp, "obj", func(v View) (*store.Txn, error) {
			return store.NewTxn().Write(5, []byte("no")), nil
		})
		if err != ErrECDataOp {
			t.Errorf("err = %v, want ErrECDataOp", err)
		}
	})
}

func TestRecoveryReplicated(t *testing.T) {
	e := newEnv(t)
	const n = 40
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := e.gw.WriteFull(p, e.rep, fmt.Sprintf("o%d", i), bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
				e.fail(err)
			}
		}
	})
	if err := e.c.FailOSD(3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.ReplaceOSD(3); err != nil {
		t.Fatal(err)
	}
	var stats RecoveryStats
	e.run(t, func(p *sim.Proc) { stats = e.c.Recover(p) })
	if stats.Duration() <= 0 {
		t.Fatal("recovery took no virtual time")
	}
	// Full redundancy restored: every object on exactly 2 OSDs.
	for i := 0; i < n; i++ {
		holders := 0
		for _, id := range e.c.OSDs() {
			st, _ := e.c.OSDStore(id)
			if st.Exists(store.Key{Pool: e.rep.ID, OID: fmt.Sprintf("o%d", i)}) {
				holders++
			}
		}
		if holders != 2 {
			t.Fatalf("object o%d on %d OSDs after recovery", i, holders)
		}
	}
	// Data still readable and correct.
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			got, err := e.gw.Read(p, e.rep, fmt.Sprintf("o%d", i), 0, -1)
			if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 4096)) {
				t.Errorf("object o%d corrupt after recovery: %v", i, err)
			}
		}
	})
}

func TestRecoveryEC(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(8))
	const n = 20
	contents := make([][]byte, n)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			contents[i] = make([]byte, 9000+i*100)
			rng.Read(contents[i])
			if err := e.gw.WriteFull(p, e.ecp, fmt.Sprintf("e%d", i), contents[i]); err != nil {
				e.fail(err)
			}
		}
	})
	if err := e.c.FailOSD(7); err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.ReplaceOSD(7); err != nil {
		t.Fatal(err)
	}
	var stats RecoveryStats
	e.run(t, func(p *sim.Proc) { stats = e.c.Recover(p) })
	_ = stats
	for i := 0; i < n; i++ {
		holders := 0
		for _, id := range e.c.OSDs() {
			st, _ := e.c.OSDStore(id)
			if st.Exists(store.Key{Pool: e.ecp.ID, OID: fmt.Sprintf("e%d", i)}) {
				holders++
			}
		}
		if holders != 3 {
			t.Fatalf("EC object e%d on %d OSDs after recovery", i, holders)
		}
	}
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			got, err := e.gw.Read(p, e.ecp, fmt.Sprintf("e%d", i), 0, -1)
			if err != nil || !bytes.Equal(got, contents[i]) {
				t.Errorf("EC object e%d corrupt after recovery: %v", i, err)
			}
		}
	})
}

func TestRebalanceOnOSDAdd(t *testing.T) {
	e := newEnv(t)
	const n = 60
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			e.gw.WriteFull(p, e.rep, fmt.Sprintf("o%d", i), make([]byte, 2048))
		}
	})
	// Add a new host with 4 OSDs; rebalance must move data onto it and
	// remove stale copies.
	e.c.AddHost("host4", 12)
	for d := 0; d < 4; d++ {
		if err := e.c.AddOSD(16+d, "host4", 1.0); err != nil {
			t.Fatal(err)
		}
	}
	e.run(t, func(p *sim.Proc) { e.c.Recover(p) })
	onNew := 0
	for id := 16; id < 20; id++ {
		st, _ := e.c.OSDStore(id)
		onNew += st.Usage().Objects
	}
	if onNew == 0 {
		t.Fatal("no objects moved to the new host")
	}
	// Redundancy must remain exactly 2 everywhere (stale copies removed).
	for i := 0; i < n; i++ {
		holders := 0
		for _, id := range e.c.OSDs() {
			st, _ := e.c.OSDStore(id)
			if st.Exists(store.Key{Pool: e.rep.ID, OID: fmt.Sprintf("o%d", i)}) {
				holders++
			}
		}
		if holders != 2 {
			t.Fatalf("object o%d on %d OSDs after rebalance", i, holders)
		}
	}
}

func TestPoolStatsAndListObjects(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.rep, "a", make([]byte, 1000))
		e.gw.WriteFull(p, e.rep, "b", make([]byte, 500))
	})
	ps := e.c.PoolStats(e.rep)
	if ps.Objects != 2 || ps.LogicalBytes != 1500 {
		t.Fatalf("stats = %+v", ps)
	}
	if ps.StoredPhysical != 3000 { // 2x replication
		t.Fatalf("stored = %d want 3000", ps.StoredPhysical)
	}
	objs := e.c.ListObjects(e.rep)
	if len(objs) != 2 || objs[0] != "a" || objs[1] != "b" {
		t.Fatalf("objects = %v", objs)
	}
}

func TestECStoredOverhead(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.ecp, "a", make([]byte, 80000))
	})
	ps := e.c.PoolStats(e.ecp)
	// EC 2+1: stored ~1.5x logical (stripe padding adds a little).
	ratio := float64(ps.StoredPhysical) / float64(ps.LogicalBytes)
	if ratio < 1.45 || ratio > 1.65 {
		t.Fatalf("EC overhead ratio %.2f, want ~1.5", ratio)
	}
}

func TestNoOSDError(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, simcost.Default())
	pool, _ := c.CreatePool(PoolConfig{Name: "p", Redundancy: ReplicatedN(2)})
	gw := c.NewGateway("cl")
	var err error
	eng.Go("t", func(p *sim.Proc) { err = gw.WriteFull(p, pool, "o", []byte("x")) })
	eng.Run()
	if err != ErrNoOSD {
		t.Fatalf("err = %v, want ErrNoOSD", err)
	}
}

func TestForegroundOpCounting(t *testing.T) {
	e := newEnv(t)
	internal, err := e.c.HostGateway("host0")
	if err != nil {
		t.Fatal(err)
	}
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			e.gw.WriteFull(p, e.rep, fmt.Sprintf("fg%d", i), make([]byte, 100))
		}
		for i := 0; i < 5; i++ {
			internal.WriteFull(p, e.rep, fmt.Sprintf("bg%d", i), make([]byte, 100))
		}
	})
	ops, _ := e.c.ForegroundOps().Totals()
	if ops != 10 {
		t.Fatalf("foreground ops = %d, want 10 (internal gateway must not count)", ops)
	}
}

func TestWriteLatencyRealistic(t *testing.T) {
	e := newEnv(t)
	var elapsed sim.Time
	e.run(t, func(p *sim.Proc) {
		start := p.Now()
		e.gw.WriteFull(p, e.rep, "o", make([]byte, 8192))
		elapsed = p.Now() - start
	})
	// One replicated 8K write on an idle cluster: hundreds of µs, under 5ms.
	if elapsed.Duration().Microseconds() < 100 || elapsed.Duration().Milliseconds() > 5 {
		t.Fatalf("8K write latency %v outside sane range", elapsed)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() sim.Time {
		eng := sim.New(9)
		c := NewTestbed(eng, simcost.Default(), 4, 4)
		pool, _ := c.CreatePool(PoolConfig{Name: "p", Redundancy: ReplicatedN(2)})
		gw := c.NewGateway("cl")
		eng.Go("w", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				gw.WriteFull(p, pool, fmt.Sprintf("o%d", i), make([]byte, 4096))
			}
		})
		eng.Run()
		return eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("timing diverged: %v vs %v", a, b)
	}
}

func TestHostCPUUsageAccounting(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			e.gw.WriteFull(p, e.rep, fmt.Sprintf("o%d", i), make([]byte, 32768))
		}
	})
	if u := e.c.HostCPUUsage(); u <= 0 || u > 1 {
		t.Fatalf("cpu usage = %v", u)
	}
}
