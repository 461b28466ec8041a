package rados

import (
	"bytes"
	"errors"
	"testing"

	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Regression test: a replica whose local apply fails (its copy diverged from
// the primary, e.g. a missed base write) must not kill the simulation. The
// write succeeds on the primary, the divergence is counted, the replica's copy
// keeps its old version — stale, so nothing trusts it — and a repair scrub
// restores full redundancy.
func TestDivergedReplicaApplyIsQuarantinedAndRepaired(t *testing.T) {
	e := newEnv(t)
	data := bytes.Repeat([]byte{0x5A}, 4096)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "obj", data); err != nil {
			e.fail(err)
		}
	})

	// Arm the fault on a non-primary holder: its next apply fails as a
	// diverged overwrite would.
	primary := e.primaryID(e.rep, "obj")
	key := store.Key{Pool: e.rep.ID, OID: "obj"}
	replica := -1
	for _, id := range e.c.OSDs() {
		st, _ := e.c.OSDStore(id)
		if id != primary && st.Exists(key) {
			replica = id
			break
		}
	}
	if replica < 0 {
		t.Fatal("no replica holder found")
	}
	repStore, _ := e.c.OSDStore(replica)
	repStore.FailApplies(1, errors.New("replica diverged"))

	update := bytes.Repeat([]byte{0xC3}, 4096)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "obj", update); err != nil {
			e.fail(err)
		}
		// The op acked with the primary's copy intact.
		got, err := e.gw.Read(p, e.rep, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, update) {
			t.Errorf("read after diverged apply: %v (match=%v)", err, bytes.Equal(got, update))
		}
	})
	if n := e.c.Metrics().Counter("rados_replica_diverged_total").Value(); n != 1 {
		t.Errorf("rados_replica_diverged_total = %d, want 1", n)
	}
	if e.c.current(e.c.osds[replica], key) {
		t.Error("diverged copy not quarantined: the replica's copy still counts as current")
	}

	// A repair scrub re-replicates from the primary.
	var stats ScrubStats
	e.run(t, func(p *sim.Proc) { stats = e.c.Scrub(p, e.rep, true) })
	if stats.Repaired == 0 {
		t.Fatalf("repair scrub fixed nothing: %+v", stats)
	}
	if !e.c.current(e.c.osds[replica], key) {
		t.Error("repair did not restore the replica copy")
	}
	got, err := repStore.Read(key, 0, -1)
	if err != nil || !bytes.Equal(got, update) {
		t.Errorf("restored replica content mismatch (err=%v)", err)
	}
}
