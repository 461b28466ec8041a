package rados

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

func TestScrubCleanCluster(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			e.gw.WriteFull(p, e.rep, fmt.Sprintf("o%d", i), bytes.Repeat([]byte{byte(i)}, 2048))
		}
	})
	var stats ScrubStats
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.rep, false) })
	if !stats.Clean() {
		t.Fatalf("clean cluster scrub found: %v", stats.Errors)
	}
	if stats.Objects != 10 || stats.BytesScanned == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestScrubDetectsReplicaBitRot(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.rep, "victim", bytes.Repeat([]byte{7}, 4096))
	})
	// Corrupt the non-primary replica.
	pg := e.c.PGOf(e.rep, "victim")
	acting := e.c.Map().ActingSet(pg, 2)
	key := store.Key{Pool: e.rep.ID, OID: "victim"}
	if err := e.c.CorruptForTest(acting[1], key, 100); err != nil {
		t.Fatal(err)
	}
	var stats ScrubStats
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.rep, false) })
	if stats.Clean() {
		t.Fatal("scrub missed the corrupted replica")
	}
	if stats.Errors[0].OSD != acting[1] {
		t.Fatalf("blamed osd.%d, corrupted osd.%d", stats.Errors[0].OSD, acting[1])
	}
	// Repair pass fixes it.
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.rep, true) })
	if stats.Repaired != 1 {
		t.Fatalf("repaired = %d", stats.Repaired)
	}
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.rep, false) })
	if !stats.Clean() {
		t.Fatalf("still inconsistent after repair: %v", stats.Errors)
	}
}

// TestCorruptForTestRotsOneReplica: replicas share one backing array —
// handed to both by the write's fan-out, or to the second by a scrub repair
// or a recovery copy of the first — and bit rot on one of them must stay on
// that one: the other's bytes are what was written, and scrub blames the
// rotten copy alone.
func TestCorruptForTestRotsOneReplica(t *testing.T) {
	want := bytes.Repeat([]byte{7}, 4096)
	for _, tc := range []struct {
		name   string
		reseat func(e *testEnv, replica int) // makes the replica's copy a new alias of the primary's
	}{
		{"shared by the write fan-out", func(*testEnv, int) {}},
		{"shared by scrub repair", func(e *testEnv, replica int) {
			e.c.osds[replica].remove(nil, store.Key{Pool: e.rep.ID, OID: "victim"})
			e.run(t, func(p *sim.Proc) { e.c.Scrub(p, e.rep, true) })
		}},
		{"shared by a recovery copy", func(e *testEnv, replica int) {
			if _, err := e.c.ReplaceOSD(replica); err != nil {
				t.Fatal(err)
			}
			e.run(t, func(p *sim.Proc) { e.c.Recover(p) })
		}},
	} {
		for rotten := 0; rotten < 2; rotten++ {
			t.Run(fmt.Sprintf("%s, rot on acting[%d]", tc.name, rotten), func(t *testing.T) {
				e := newEnv(t)
				e.run(t, func(p *sim.Proc) { e.gw.WriteFull(p, e.rep, "victim", want) })
				key := store.Key{Pool: e.rep.ID, OID: "victim"}
				acting := e.c.Map().ActingSet(e.c.PGOf(e.rep, "victim"), 2)
				tc.reseat(e, acting[1])
				if err := e.c.CorruptForTest(acting[rotten], key, 100); err != nil {
					t.Fatal(err)
				}
				healthy, _ := e.c.OSDStore(acting[1-rotten])
				if got, err := healthy.Read(key, 0, -1); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("rot on osd.%d shows on osd.%d (err %v)", acting[rotten], acting[1-rotten], err)
				}
				var stats ScrubStats
				e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.rep, false) })
				// The primary is the authority, so either way it is the replica
				// that is reported as differing from it.
				if len(stats.Errors) != 1 || stats.Errors[0].OSD != acting[1] || stats.Errors[0].Detail != "data mismatch" {
					t.Fatalf("scrub verdict: %v", stats.Errors)
				}
			})
		}
	}
}

func TestScrubDetectsXattrDivergence(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.rep, "obj", []byte("x"))
		e.gw.SetXattr(p, e.rep, "obj", "k", []byte("same"))
	})
	pg := e.c.PGOf(e.rep, "obj")
	acting := e.c.Map().ActingSet(pg, 2)
	st, _ := e.c.OSDStore(acting[1])
	st.Apply(store.Key{Pool: e.rep.ID, OID: "obj"}, store.NewTxn().SetXattr("k", []byte("diff")))
	var stats ScrubStats
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.rep, false) })
	if stats.Clean() {
		t.Fatal("scrub missed xattr divergence")
	}
}

func TestScrubECParity(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 20000)
	rand.New(rand.NewSource(3)).Read(data)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.ecp, "obj", data)
	})
	var stats ScrubStats
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.ecp, false) })
	if !stats.Clean() {
		t.Fatalf("clean EC scrub found: %v", stats.Errors)
	}
	// Corrupt the parity shard (index k = 2).
	key := store.Key{Pool: e.ecp.ID, OID: "obj"}
	var parityOSD = -1
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		if st.Exists(key) {
			if idx := getU64(mustXattr(st, key, xattrECIdx)); idx == 2 {
				parityOSD = id
			}
		}
	}
	if parityOSD < 0 {
		t.Fatal("parity shard not found")
	}
	if err := e.c.CorruptForTest(parityOSD, key, 10); err != nil {
		t.Fatal(err)
	}
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.ecp, false) })
	if stats.Clean() {
		t.Fatal("scrub missed EC parity corruption")
	}
	// Repair rebuilds parity from data.
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.ecp, true) })
	if stats.Repaired == 0 {
		t.Fatal("repair did not rebuild parity")
	}
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.ecp, false) })
	if !stats.Clean() {
		t.Fatalf("EC still inconsistent after repair: %v", stats.Errors)
	}
	// Data still reads back correctly.
	e.run(t, func(p *sim.Proc) {
		got, err := e.gw.Read(p, e.ecp, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("data corrupted by repair: %v", err)
		}
	})
}

func TestScrubECDegradedReported(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.gw.WriteFull(p, e.ecp, "obj", make([]byte, 10000))
	})
	// Fail one shard holder: scrub must flag the degraded object.
	key := store.Key{Pool: e.ecp.ID, OID: "obj"}
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		if st.Exists(key) {
			e.c.Map().SetUp(id, false)
			break
		}
	}
	var stats ScrubStats
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.ecp, false) })
	if stats.Clean() {
		t.Fatal("scrub missed degraded EC object")
	}
}

func TestCorruptForTestValidation(t *testing.T) {
	e := newEnv(t)
	if err := e.c.CorruptForTest(999, store.Key{Pool: 1, OID: "x"}, 0); err == nil {
		t.Fatal("unknown OSD accepted")
	}
	e.run(t, func(p *sim.Proc) { e.gw.WriteFull(p, e.rep, "obj", []byte("ab")) })
	pg := e.c.PGOf(e.rep, "obj")
	acting := e.c.Map().ActingSet(pg, 2)
	if err := e.c.CorruptForTest(acting[0], store.Key{Pool: e.rep.ID, OID: "obj"}, 100); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
}
