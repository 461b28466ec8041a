package rados

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
	"dedupstore/internal/store"
)

// held is a link's occupancy area (slot·ns) as of now.
func held(now sim.Time, s *qos.Scheduler) int64 {
	h, _, _ := s.Resource().Occupancy(now)
	return h
}

// netLocal reads rados_net_local_bytes_total.
func (e *testEnv) netLocal() int64 {
	return e.c.Metrics().Counter("rados_net_local_bytes_total").Value()
}

// TestSameHostHopOccupiesNoLink: a host gateway's read and mutation of an
// object whose primary is on its own host occupy that host's link not at all,
// and take exactly the client gateway's latency less the two serializations
// the client pays; a client read occupies both the serving host's link and
// the client's. Every byte a hop delivered without a link is counted.
func TestSameHostHopOccupiesNoLink(t *testing.T) {
	e := newEnv(t)
	oid := ""
	for i := 0; oid == ""; i++ {
		if h, _ := e.c.PrimaryHost(e.rep, fmt.Sprintf("o%d", i)); h == "host0" {
			oid = fmt.Sprintf("o%d", i)
		}
	}
	host := e.c.hosts["host0"].nicSched
	local, err := e.c.HostGatewayClass("host0", qos.Client)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 << 10
	ser := int64(e.c.cost.NetSer(n))
	data := bytes.Repeat([]byte{7}, n)
	// timed runs op, returns how long it took and how much it occupied the
	// host's link and the client's.
	timed := func(p *sim.Proc, op func() error) (d time.Duration, hostHeld, clientHeld int64) {
		h0, c0, start := held(p.Now(), host), held(p.Now(), e.gw.nic), p.Now()
		if err := op(); err != nil {
			e.fail(err)
		}
		return (p.Now() - start).Duration(), held(p.Now(), host) - h0, held(p.Now(), e.gw.nic) - c0
	}
	e.run(t, func(p *sim.Proc) {
		clientWrite, hostHeld, _ := timed(p, func() error { return e.gw.WriteFull(p, e.rep, oid, data) })
		if hostHeld != ser {
			t.Errorf("client write occupied the primary host's link %d ns, want %d", hostHeld, ser)
		}
		localWrite, hostHeld, _ := timed(p, func() error { return local.WriteFull(p, e.rep, oid, data) })
		if hostHeld != 0 {
			t.Errorf("same-host write occupied the host's link %d ns, want 0", hostHeld)
		}
		if got := clientWrite - localWrite; got != 2*time.Duration(ser) {
			t.Errorf("client write %v, same-host write %v: differ by %v, want the two serializations %v", clientWrite, localWrite, got, 2*time.Duration(ser))
		}

		clientRead, hostHeld, clientHeld := timed(p, func() error { _, err := e.gw.Read(p, e.rep, oid, 0, -1); return err })
		if hostHeld != ser || clientHeld != ser {
			t.Errorf("client read occupied the serving host's link %d ns and the client's %d ns, want %d each", hostHeld, clientHeld, ser)
		}
		localRead, hostHeld, _ := timed(p, func() error { _, err := local.Read(p, e.rep, oid, 0, -1); return err })
		if hostHeld != 0 {
			t.Errorf("same-host read occupied the host's link %d ns, want 0", hostHeld)
		}
		if got := clientRead - localRead; got != 2*time.Duration(ser) {
			t.Errorf("client read %v, same-host read %v: differ by %v, want the two serializations %v", clientRead, localRead, got, 2*time.Duration(ser))
		}
		if hops := 3 * e.c.cost.NetLatency; localRead < hops {
			t.Errorf("same-host read took %v, less than its three hops' latency %v", localRead, hops)
		}
	})
	// The same-host write's request and the same-host read's reply, each
	// charged at both of its ends.
	if got := e.netLocal(); got != 4*n {
		t.Errorf("rados_net_local_bytes_total = %d, want %d", got, 4*n)
	}
}

// TestECShardOnPrimaryHostOccupiesNoLink: with three EC 2+1 shards on two
// hosts, one non-primary shard shares the primary's host. Its write occupies
// no link: the primary host's link carries only the client's request, and
// the other host's only its one shard.
func TestECShardOnPrimaryHostOccupiesNoLink(t *testing.T) {
	eng := sim.New(42)
	c := NewTestbed(eng, simcost.Default(), 2, 2)
	pool, err := c.CreatePool(PoolConfig{Name: "ecp", PGNum: 16, Redundancy: ErasureKM(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	e := &testEnv{eng: eng, c: c, ecp: pool, gw: c.NewGateway("client0"), fail: func(err error) { t.Helper(); t.Fatal(err) }}
	const oid, n = "obj", 64 << 10
	acting := c.acting(pool, c.PGOf(pool, oid))
	primary, other := acting[0].host, acting[0].host
	for _, o := range acting[1:] {
		if o.host != primary {
			other = o.host
		}
	}
	if other == primary {
		t.Fatalf("acting set %v sits on one host", acting)
	}
	var shard int
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, pool, oid, bytes.Repeat([]byte{9}, n)); err != nil {
			e.fail(err)
		}
		obj, err := acting[1].store.Snapshot(store.Key{Pool: pool.ID, OID: oid})
		if err != nil {
			e.fail(err)
		}
		shard = len(obj.Data)
	})
	now := eng.Now()
	if got, want := held(now, primary.nicSched), int64(c.cost.NetSer(n)); got != want {
		t.Errorf("primary host's link held %d ns, want the request's %d", got, want)
	}
	if got, want := held(now, other.nicSched), int64(c.cost.NetSer(shard)); got != want {
		t.Errorf("other host's link held %d ns, want one shard's %d", got, want)
	}
	if got := e.netLocal(); got != int64(shard) {
		t.Errorf("rados_net_local_bytes_total = %d, want one shard's %d bytes", got, shard)
	}
}
