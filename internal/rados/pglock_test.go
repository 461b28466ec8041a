package rados

import (
	"fmt"
	"testing"

	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// TestPGLockExcludesWire pins what a replicated mutation's PG lock covers:
// the primary's work and the replicas' apply, not the request's transfer.
// A 1 MiB write to x and a bare Mutate of y, in the same PG, start at one
// instant from two client sessions: the Mutate must not queue behind the
// write's payload crossing the client's and the primary's links. And a
// Mutate issued while the write holds the lock must still find the write
// applied on every replica.
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

	t.Run("mutate sees the replicated write", func(t *testing.T) {
		e, y, other := setup(t)
		key := store.Key{Pool: e.rep.ID, OID: x}
		e.run(t, func(p *sim.Proc) {
			write := p.Go("write", func(q *sim.Proc) {
				if err := e.gw.WriteFull(q, e.rep, x, data); err != nil {
					e.fail(err)
				}
			})
			// Just past the instant the write's request has landed and it was
			// granted the lock, which the replicas' work holds for far longer.
			p.Sleep(2*e.c.cost.NetXfer(len(data)) + e.c.cost.NetLatency)
			if e.rep.lockWait.Count() != 1 || e.rep.lockHold.Count() != 0 {
				t.Errorf("the write does not hold the PG lock when the Mutate is issued")
			}
			err := other.Mutate(p, e.rep, y, func(v View) (*store.Txn, error) {
				for _, o := range e.c.acting(e.rep, e.c.PGOf(e.rep, x)) {
					if n, err := o.store.Size(key); n != int64(len(data)) {
						t.Errorf("Mutate ran while osd.%d held %d bytes of the write (%v): the lock was released before the replicas applied", o.id, n, err)
					}
				}
				return bump(v)
			})
			if err != nil {
				e.fail(err)
			}
			sim.WaitAll(p, write)
		})
		if e.rep.lockWait.Max() == 0 {
			t.Errorf("the Mutate never waited for the lock, so it did not overlap the write")
		}
	})
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
