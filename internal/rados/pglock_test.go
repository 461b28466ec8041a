package rados

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// TestPGLockExcludesWire pins what a replicated mutation's PG lock covers:
// the primary's own work, not the request's transfer and not the replica
// legs. A 1 MiB write to x and a bare Mutate of y, in the same PG, start at
// one instant from two client sessions: the Mutate must not queue behind the
// write's payload crossing the client's and the primary's links. And a Mutate
// issued just after the write's commit runs before the replicas have applied
// it, while the write's ack still waits for every replica.
func TestPGLockExcludesWire(t *testing.T) {
	const x = "x"
	data := make([]byte, 1<<20)
	bump := func(View) (*store.Txn, error) {
		return store.NewTxn().Create().SetXattr("n", []byte{1}), nil
	}
	setup := func(t *testing.T) (e *testEnv, y string, other *Gateway) {
		e = newEnv(t)
		for i := 0; y == ""; i++ {
			if oid := fmt.Sprintf("y%d", i); e.c.PGOf(e.rep, oid) == e.c.PGOf(e.rep, x) {
				y = oid
			}
		}
		return e, y, e.c.NewGateway("client1")
	}

	t.Run("mutate passes the write's transfer", func(t *testing.T) {
		e, y, other := setup(t)
		wire := 2 * e.c.cost.NetSer(len(data)) // the write's request, on both links
		var took sim.Time
		e.run(t, func(p *sim.Proc) {
			write := p.Go("write", func(q *sim.Proc) {
				if err := e.gw.WriteFull(q, e.rep, x, data); err != nil {
					e.fail(err)
				}
			})
			mutate := p.Go("mutate", func(q *sim.Proc) {
				if err := other.Mutate(q, e.rep, y, bump); err != nil {
					e.fail(err)
				}
				took = q.Now()
			})
			sim.WaitAll(p, write, mutate)
		})
		if took.Duration() >= wire {
			t.Errorf("Mutate on the write's PG took %v, not under the %v the write's payload spends on the wire: it waited for the transfer", took.Duration(), wire)
		}
		if w, h := e.rep.lockWait.Count(), e.rep.lockHold.Count(); w != 2 || h != 2 {
			t.Errorf("pool histograms recorded %d waits and %d holds for two acquisitions", w, h)
		}
	})

	t.Run("mutate runs before the replicas apply", func(t *testing.T) {
		e, y, other := setup(t)
		key := store.Key{Pool: e.rep.ID, OID: x}
		acting := e.c.acting(e.rep, e.c.PGOf(e.rep, x))
		own := e.c.cost.OpOverhead + e.c.cost.Checksum(len(data)) // the primary's CPU for the write
		e.run(t, func(p *sim.Proc) {
			write := p.Go("write", func(q *sim.Proc) {
				if err := e.gw.WriteFull(q, e.rep, x, data); err != nil {
					e.fail(err)
				}
				for _, o := range acting {
					if !e.c.current(o, key) {
						t.Errorf("the write was acked before osd.%d applied it", o.id)
					}
				}
			})
			// Just past the write's commit: its request has landed on both
			// links and the primary has done its own work.
			p.Sleep(2*(e.c.cost.NetLatency+e.c.cost.NetSer(len(data))) + own + time.Microsecond)
			err := other.Mutate(p, e.rep, y, func(v View) (*store.Txn, error) {
				if e.c.head[key] == 0 {
					t.Errorf("Mutate ran before the write committed")
				}
				if n, hold := e.rep.lockHold.Count(), e.rep.lockHold.Max(); n != 1 || hold > own {
					t.Errorf("the write held the PG lock %v (%d holds recorded), longer than the primary's own %v", hold, n, own)
				}
				for _, o := range acting[1:] {
					if e.c.current(o, key) {
						t.Errorf("Mutate ran only after osd.%d applied the write: the lock covers the replica leg", o.id)
					}
				}
				return bump(v)
			})
			if err != nil {
				e.fail(err)
			}
			sim.WaitAll(p, write)
		})
		if n := e.rep.replApply.Count(); n != 2 {
			t.Errorf("rados_replica_apply recorded %d writes' replica legs, want 2", n)
		}
	})
}

// TestPrimaryDiesBetweenCommitAndReplicas: the primary crashes after it has
// applied a write and moved the head, before the write's replica leg lands.
// No read, before or after the monitor marks it down, may see anything but
// the whole object before the write or the whole object after it, or fail
// retryably; once Recover has run, every current copy is the same.
func TestPrimaryDiesBetweenCommitAndReplicas(t *testing.T) {
	e := newEnv(t)
	m := e.c.StartMonitor(monCfg())
	const oid = "obj"
	key := store.Key{Pool: e.rep.ID, OID: oid}
	acting := e.c.acting(e.rep, e.c.PGOf(e.rep, oid))
	pre := bytes.Repeat([]byte{0x11}, 256<<10)
	patch := bytes.Repeat([]byte{0x22}, 64<<10)
	post := patched(pre, 100<<10, patch)
	var retryable, posts int
	check := func(got []byte, err error) {
		switch {
		case err == nil && bytes.Equal(got, post):
			posts++
		case err == nil && bytes.Equal(got, pre):
		case err != nil && IsUnavailable(err):
			retryable++
		default:
			t.Errorf("read served %d bytes (err %v): neither the whole pre-write nor the whole post-write object", len(got), err)
		}
	}
	read := func(p *sim.Proc) { check(e.gw.Read(p, e.rep, oid, 0, -1)) }
	e.runMon(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, oid, pre); err != nil {
			e.fail(err)
		}
		before := e.c.head[key]
		// The client may or may not see an ack; only what reads serve counts.
		write := p.Go("write", func(q *sim.Proc) { _ = e.gw.Write(q, e.rep, oid, 100<<10, patch) })
		for e.c.head[key] == before {
			p.Sleep(time.Microsecond)
		}
		for _, r := range acting[1:] {
			if e.c.current(r, key) {
				t.Fatalf("osd.%d applied the write by its commit: no window to kill in", r.id)
			}
		}
		if err := e.c.CrashOSD(acting[0].id); err != nil {
			e.fail(err)
		}
		// Reads at every instant of the window, until and past the leg landing.
		var reads []*sim.Signal
		for range 20 {
			reads = append(reads, p.Go("read", read))
			p.Sleep(20 * time.Microsecond)
		}
		sim.WaitAll(p, reads...)
		// Then through detection, mark-out and the monitor's Recover.
		for !m.Settled() {
			read(p)
			p.Sleep(50 * time.Millisecond)
		}
		read(p)
		sim.WaitAll(p, write)
	})
	if retryable == 0 || posts == 0 {
		t.Errorf("%d reads failed retryably and %d served the write: the window was not exercised", retryable, posts)
	}
	var holders []*osd
	for _, o := range e.c.osds {
		if o.store.Exists(key) && e.c.current(o, key) {
			holders = append(holders, o)
		}
	}
	for _, o := range holders {
		got, _ := o.store.Read(key, 0, -1)
		want, _ := holders[0].store.Read(key, 0, -1)
		if o.store.Version(key) != holders[0].store.Version(key) || !bytes.Equal(got, want) || !bytes.Equal(got, pre) && !bytes.Equal(got, post) {
			t.Errorf("osd.%d's current copy (version %d) differs from osd.%d's (version %d) or is half a write",
				o.id, o.store.Version(key), holders[0].id, holders[0].store.Version(key))
		}
	}
	if len(holders) < e.rep.Red.Size {
		t.Errorf("%d current copies after Recover, want %d", len(holders), e.rep.Red.Size)
	}
}

// TestPGLockHistogramsEC: EC mutations keep their wider lock scope, but
// their acquisitions are timed into the same per-pool histograms.
func TestPGLockHistogramsEC(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, "o", make([]byte, 8192)); err != nil {
			e.fail(err)
		}
		if err := e.gw.Delete(p, e.ecp, "o"); err != nil {
			e.fail(err)
		}
	})
	if w, h := e.ecp.lockWait.Count(), e.ecp.lockHold.Count(); w != 2 || h != 2 {
		t.Errorf("EC pool histograms recorded %d waits and %d holds for two acquisitions", w, h)
	}
	if e.ecp.lockHold.Min() == 0 {
		t.Errorf("an EC write held its PG lock for no time; its wire legs and ack are inside the lock")
	}
}
