package rados

import (
	"testing"
	"time"

	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
	"dedupstore/internal/store"
)

func TestOpCounterTotals(t *testing.T) {
	eng := sim.New(1)
	oc := NewOpCounter(eng)
	for i := 0; i < 5; i++ {
		oc.Note(100)
	}
	ops, bytes := oc.Totals()
	if ops != 5 || bytes != 500 {
		t.Fatalf("totals = %d, %d", ops, bytes)
	}
}

func TestOpCounterSlidingWindow(t *testing.T) {
	eng := sim.New(1)
	oc := NewOpCounter(eng)
	eng.Go("driver", func(p *sim.Proc) {
		// 100 ops in the first second.
		for i := 0; i < 100; i++ {
			oc.Note(1000)
			p.Sleep(10 * time.Millisecond)
		}
		if got := oc.RecentIOPS(); got < 80 || got > 120 {
			t.Errorf("recent IOPS = %v, want ~100", got)
		}
		if _, got := oc.recent(); got < 80e3 || got > 120e3 {
			t.Errorf("recent throughput = %v, want ~100KB/s", got)
		}
		// Go quiet for two seconds: the window must drain to zero.
		p.Sleep(2 * time.Second)
		if got := oc.RecentIOPS(); got != 0 {
			t.Errorf("idle IOPS = %v, want 0", got)
		}
	})
	eng.Run()
}

func TestOpCounterBucketReuse(t *testing.T) {
	eng := sim.New(1)
	oc := NewOpCounter(eng)
	eng.Go("driver", func(p *sim.Proc) {
		oc.Note(1)
		p.Sleep(5 * time.Second) // far past the ring
		oc.Note(1)
		// Only the fresh op should be visible.
		if got := oc.RecentIOPS(); got > 2 {
			t.Errorf("stale bucket leaked: IOPS = %v", got)
		}
	})
	eng.Run()
}

func TestECWidePool(t *testing.T) {
	// EC 4+2 over 6+ OSDs: wider-than-paper configuration.
	eng := sim.New(2)
	c := NewTestbed(eng, defaultCost(), 6, 2)
	pool, err := c.CreatePool(PoolConfig{Name: "wide", PGNum: 32, Redundancy: ErasureKM(4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	gw := c.NewGateway("cl")
	data := make([]byte, 100000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	eng.Go("t", func(p *sim.Proc) {
		if err := gw.WriteFull(p, pool, "obj", data); err != nil {
			t.Error(err)
			return
		}
		got, err := gw.Read(p, pool, "obj", 0, -1)
		if err != nil || len(got) != len(data) {
			t.Errorf("read: %v", err)
			return
		}
		for i := range got {
			if got[i] != data[i] {
				t.Errorf("byte %d mismatch", i)
				return
			}
		}
	})
	eng.Run()
	// Two failures tolerated.
	holders := 0
	for _, id := range c.OSDs() {
		st, _ := c.OSDStore(id)
		if st.Exists(storeKeyFor(pool, "obj")) {
			holders++
		}
	}
	if holders != 6 {
		t.Fatalf("shards on %d OSDs, want 6", holders)
	}
	failed := 0
	for _, id := range c.OSDs() {
		st, _ := c.OSDStore(id)
		if st.Exists(storeKeyFor(pool, "obj")) && failed < 2 {
			c.Map().SetUp(id, false)
			failed++
		}
	}
	eng.Go("t2", func(p *sim.Proc) {
		got, err := gw.Read(p, pool, "obj", 40000, 20000)
		if err != nil {
			t.Errorf("degraded read with 2 failures: %v", err)
			return
		}
		for i := range got {
			if got[i] != data[40000+i] {
				t.Error("degraded read data mismatch")
				return
			}
		}
	})
	eng.Run()
}

func defaultCost() simcost.Params { return simcost.Default() }

func storeKeyFor(pool *Pool, oid string) store.Key { return store.Key{Pool: pool.ID, OID: oid} }
