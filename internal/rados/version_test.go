package rados

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"dedupstore/internal/ec"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// The recovery-copy race: Recover snapshots a source, spends simulated time
// reading, shipping and applying it, then installs the snapshot. A write or
// delete acknowledged in that window must win. Each case below starts a
// Recover whose copy of a 1 MiB object is in flight, lands a foreground
// mutation of the object meanwhile, and then reads the object back — also
// from the copy Recover was filling, by killing the primary.

const raceSize = 1 << 20

// startRecover runs Recover in a child process and returns once its copies
// have taken their snapshots and are on the wire.
func startRecover(p *sim.Proc, c *Cluster) *sim.Signal {
	sig := p.Go("recover", func(q *sim.Proc) { c.Recover(q) })
	p.Sleep(10 * time.Microsecond)
	return sig
}

// patched returns base with patch written at off.
func patched(base []byte, off int, patch []byte) []byte {
	out := slices.Clone(base)
	copy(out[off:], patch)
	return out
}

// readEverywhere reads oid through the primary, then with the primary killed
// through the replica Recover was filling, and reports any answer but want.
func (e *testEnv) readEverywhere(t *testing.T, p *sim.Proc, oid string, want []byte) {
	t.Helper()
	for _, via := range []string{"primary", "replica"} {
		if via == "replica" {
			if err := e.c.CrashOSD(e.primaryID(e.rep, oid)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := e.gw.Read(p, e.rep, oid, 0, -1)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("read via the %s: err=%v, %d bytes, match=%v", via, err, len(got), bytes.Equal(got, want))
		}
	}
}

func (e *testEnv) refusedInstalls() int64 {
	return e.c.Metrics().Counter("rados_stale_installs_refused_total").Value()
}

// TestWriteDuringMarkOutCopy: a replica is marked out, Recover copies the
// object to the OSD that replaces it, and a write acknowledged meanwhile is
// what every later read returns.
func TestWriteDuringMarkOutCopy(t *testing.T) {
	e := newEnv(t)
	v1 := bytes.Repeat([]byte{0x11}, raceSize)
	patch := []byte("acknowledged")
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "obj", v1); err != nil {
			e.fail(err)
		}
		if err := e.c.FailOSD(e.c.acting(e.rep, e.c.PGOf(e.rep, "obj"))[1].id); err != nil {
			e.fail(err)
		}
		rec := startRecover(p, e.c)
		if err := e.gw.Write(p, e.rep, "obj", 0, patch); err != nil {
			e.fail(err)
		}
		sim.WaitAll(p, rec)
		e.readEverywhere(t, p, "obj", patched(v1, 0, patch))
	})
	if e.refusedInstalls() == 0 {
		t.Error("no install was refused: the write did not race the copy")
	}
}

// TestWriteDuringRejoinBackfill: a replica misses a write while crashed and
// restarts with a stale copy; a write acknowledged while Recover backfills it
// is what every later read returns.
func TestWriteDuringRejoinBackfill(t *testing.T) {
	e := newEnv(t)
	v1 := bytes.Repeat([]byte{0x11}, raceSize)
	v2 := bytes.Repeat([]byte{0x22}, raceSize)
	patch := []byte("acknowledged")
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "obj", v1); err != nil {
			e.fail(err)
		}
		replica := e.c.acting(e.rep, e.c.PGOf(e.rep, "obj"))[1].id
		if err := e.c.CrashOSD(replica); err != nil {
			e.fail(err)
		}
		if err := e.gw.WriteFull(p, e.rep, "obj", v2); err != nil {
			e.fail(err)
		}
		if err := e.c.RestartOSD(replica); err != nil {
			e.fail(err)
		}
		rec := startRecover(p, e.c)
		if err := e.gw.Write(p, e.rep, "obj", 0, patch); err != nil {
			e.fail(err)
		}
		sim.WaitAll(p, rec)
		e.readEverywhere(t, p, "obj", patched(v2, 0, patch))
	})
	if e.refusedInstalls() == 0 {
		t.Error("no install was refused: the write did not race the backfill")
	}
}

// TestDeleteDuringCopyStaysDeleted: a delete acknowledged while Recover's copy
// of the object is in flight stays deleted — the copy does not resurrect it.
func TestDeleteDuringCopyStaysDeleted(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "obj", bytes.Repeat([]byte{0x11}, raceSize)); err != nil {
			e.fail(err)
		}
		if err := e.c.FailOSD(e.c.acting(e.rep, e.c.PGOf(e.rep, "obj"))[1].id); err != nil {
			e.fail(err)
		}
		rec := startRecover(p, e.c)
		if err := e.gw.Delete(p, e.rep, "obj"); err != nil {
			e.fail(err)
		}
		sim.WaitAll(p, rec)
		if _, err := e.gw.Read(p, e.rep, "obj", 0, -1); !errors.Is(err, ErrNotFound) {
			t.Errorf("read after the delete: err=%v, want not found", err)
		}
		if ok, err := e.gw.Exists(p, e.rep, "obj"); ok || err != nil {
			t.Errorf("Exists after the delete = %v, %v", ok, err)
		}
	})
	if got := e.c.ListObjects(e.rep); len(got) != 0 {
		t.Errorf("ListObjects after the delete = %v", got)
	}
	for _, o := range e.c.osds {
		if e.c.current(o, store.Key{Pool: e.rep.ID, OID: "obj"}) != !o.store.Exists(store.Key{Pool: e.rep.ID, OID: "obj"}) {
			t.Errorf("osd.%d holds a copy of the deleted object that counts as current", o.id)
		}
	}
	if e.refusedInstalls() == 0 {
		t.Error("no install was refused: the delete did not race the copy")
	}
}

// TestECRebuildRacingWrite: Recover rebuilds the data shard of a marked-out
// OSD while a partial write lands on the surviving shards. The rebuilt shard,
// reconstructed from the old rows, must not be installed; a read of the
// written rows returns the new bytes.
func TestECRebuildRacingWrite(t *testing.T) {
	e := newEnv(t)
	// An object whose data shard 1 moves to a fresh OSD when its holder is
	// marked out, shards 0 and 2 staying put.
	oid, victim := "", -1
	for i := 0; oid == ""; i++ {
		cand := fmt.Sprintf("e%d", i)
		before := slices.Clone(e.c.want(e.ecp, e.c.PGOf(e.ecp, cand)))
		e.c.cmap.SetIn(before[1].id, false)
		after := e.c.want(e.ecp, e.c.PGOf(e.ecp, cand))
		e.c.cmap.SetIn(before[1].id, true)
		if after[0] == before[0] && after[2] == before[2] {
			oid, victim = cand, before[1].id
		}
	}
	v1 := bytes.Repeat([]byte{0x11}, raceSize)
	patch := bytes.Repeat([]byte{0xEE}, StripeUnit) // unit 1: data shard 1
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, oid, v1); err != nil {
			e.fail(err)
		}
		if err := e.c.FailOSD(victim); err != nil {
			e.fail(err)
		}
		rec := startRecover(p, e.c)
		if err := e.gw.Write(p, e.ecp, oid, StripeUnit, patch); err != nil {
			e.fail(err)
		}
		sim.WaitAll(p, rec)
		got, err := e.gw.Read(p, e.ecp, oid, 0, -1)
		if want := patched(v1, StripeUnit, patch); err != nil || !bytes.Equal(got, want) {
			t.Errorf("read after the rebuild: err=%v, match=%v, the written unit reads %x…", err, bytes.Equal(got, want), got[StripeUnit:StripeUnit+4])
		}
	})
	if e.refusedInstalls() == 0 {
		t.Error("no rebuild was refused: the write did not race it")
	}
}

// crashWant crashes the holder of shard pos of oid and returns its id.
func (e *testEnv) crashWant(t *testing.T, oid string, pos int) int {
	t.Helper()
	id := e.c.want(e.ecp, e.c.PGOf(e.ecp, oid))[pos].id
	if err := e.c.CrashOSD(id); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestECFullWriteHealsStaleShard: a shard holder misses an omap removal while
// crashed. A full write after its restart must not make its stale metadata
// current: read through that shard, the removed key stays removed.
func TestECFullWriteHealsStaleShard(t *testing.T) {
	e := newEnv(t)
	v2 := bytes.Repeat([]byte{0x22}, 3*2*StripeUnit)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, "obj", bytes.Repeat([]byte{0x11}, 100)); err != nil {
			e.fail(err)
		}
		if err := e.gw.OmapSet(p, e.ecp, "obj", map[string][]byte{"a": {1}, "b": {2}}); err != nil {
			e.fail(err)
		}
		stale := e.crashWant(t, "obj", 1)
		if err := e.gw.Mutate(p, e.ecp, "obj", func(View) (*store.Txn, error) {
			return store.NewTxn().OmapRm("a"), nil
		}); err != nil {
			e.fail(err)
		}
		if err := e.c.RestartOSD(stale); err != nil {
			e.fail(err)
		}
		if err := e.gw.WriteFull(p, e.ecp, "obj", v2); err != nil {
			e.fail(err)
		}
		e.crashWant(t, "obj", 0) // metadata and data now come through shard 1
		if keys, err := e.gw.OmapList(p, e.ecp, "obj", 0); err != nil || !slices.Equal(keys, []string{"b"}) {
			t.Errorf("OmapList through the restarted shard = %v, %v; want [b]", keys, err)
		}
		if got, err := e.gw.Read(p, e.ecp, "obj", 0, -1); err != nil || !bytes.Equal(got, v2) {
			t.Errorf("read through the restarted shard: err=%v, match=%v", err, bytes.Equal(got, v2))
		}
	})
}

// TestECRecreateIgnoresStaleShard: an object is deleted while one shard holder
// is crashed, then re-created by partial writes after its restart. The
// restarted holder's shard of the old object lends the new one neither rows
// nor metadata.
func TestECRecreateIgnoresStaleShard(t *testing.T) {
	e := newEnv(t)
	stripe := 2 * StripeUnit
	head, tail := bytes.Repeat([]byte{0x22}, 100), bytes.Repeat([]byte{0x33}, 100)
	want := patched(patched(make([]byte, 2*stripe+100), 0, head), 2*stripe, tail)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, "obj", bytes.Repeat([]byte{0x11}, 3*stripe)); err != nil {
			e.fail(err)
		}
		if err := e.gw.OmapSet(p, e.ecp, "obj", map[string][]byte{"a": {1}}); err != nil {
			e.fail(err)
		}
		stale := e.crashWant(t, "obj", 1)
		if err := e.gw.Delete(p, e.ecp, "obj"); err != nil {
			e.fail(err)
		}
		if err := e.c.RestartOSD(stale); err != nil {
			e.fail(err)
		}
		if err := e.gw.Write(p, e.ecp, "obj", 0, head); err != nil {
			e.fail(err)
		}
		if err := e.gw.Write(p, e.ecp, "obj", int64(2*stripe), tail); err != nil {
			e.fail(err)
		}
		e.crashWant(t, "obj", 0)
		if keys, err := e.gw.OmapList(p, e.ecp, "obj", 0); err != nil || len(keys) != 0 {
			t.Errorf("OmapList of the re-created object = %v, %v; want none", keys, err)
		}
		if got, err := e.gw.Read(p, e.ecp, "obj", 0, -1); err != nil || !bytes.Equal(got, want) {
			t.Errorf("read of the re-created object: err=%v, match=%v", err, bytes.Equal(got, want))
		}
	})
}

// loseCurrentCopies leaves oid, a 2-replica object, with no current copy
// anywhere: its replica misses a write while crashed, then the primary's
// device is replaced. The replica restarts with its stale copy.
func (e *testEnv) loseCurrentCopies(t *testing.T, p *sim.Proc, oid string) {
	t.Helper()
	acting := e.c.acting(e.rep, e.c.PGOf(e.rep, oid))
	primary, replica := acting[0].id, acting[1].id
	if err := e.gw.WriteFull(p, e.rep, oid, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.c.CrashOSD(replica); err != nil {
		t.Fatal(err)
	}
	if err := e.gw.WriteFull(p, e.rep, oid, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.ReplaceOSD(primary); err != nil {
		t.Fatal(err)
	}
	if err := e.c.RestartOSD(replica); err != nil {
		t.Fatal(err)
	}
}

// TestMutateLostObject: an object with no current copy left anywhere is lost,
// not unavailable. Reads say not-found, and a delete or a full write of it
// succeeds, as for a deleted object; the replica's stale copy goes with it.
func TestMutateLostObject(t *testing.T) {
	e := newEnv(t)
	e.run(t, func(p *sim.Proc) {
		e.loseCurrentCopies(t, p, "gone")
		if _, err := e.gw.Read(p, e.rep, "gone", 0, -1); !errors.Is(err, ErrNotFound) {
			t.Errorf("read of the lost object: err=%v, want not found", err)
		}
		if err := e.gw.Delete(p, e.rep, "gone"); err != nil {
			t.Errorf("delete of the lost object: %v", err)
		}
		e.loseCurrentCopies(t, p, "again")
		if err := e.gw.WriteFull(p, e.rep, "again", []byte("v3")); err != nil {
			t.Errorf("full write of the lost object: %v", err)
		}
		if got, err := e.gw.Read(p, e.rep, "again", 0, -1); err != nil || string(got) != "v3" {
			t.Errorf("read after the full write = %q, %v", got, err)
		}
	})
	if got := e.c.ListObjects(e.rep); !slices.Equal(got, []string{"again"}) {
		t.Errorf("ListObjects = %v, want [again]", got)
	}
	for _, o := range e.c.osds {
		if o.store.Exists(store.Key{Pool: e.rep.ID, OID: "gone"}) {
			t.Errorf("osd.%d keeps a copy of the deleted lost object", o.id)
		}
	}
}

// TestECReadOfLostObject: an EC object with fewer than k current shards left
// anywhere is unrecoverable (ec.ErrTooFew), not retryably unavailable, and a
// full write re-creates it.
func TestECReadOfLostObject(t *testing.T) {
	e := newEnv(t)
	v3 := bytes.Repeat([]byte{0x33}, 3*StripeUnit)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, "obj", bytes.Repeat([]byte{0x11}, 3*StripeUnit)); err != nil {
			e.fail(err)
		}
		stale := e.crashWant(t, "obj", 1)
		if err := e.gw.WriteFull(p, e.ecp, "obj", bytes.Repeat([]byte{0x22}, 3*StripeUnit)); err != nil {
			e.fail(err)
		}
		if _, err := e.c.ReplaceOSD(e.c.want(e.ecp, e.c.PGOf(e.ecp, "obj"))[0].id); err != nil {
			e.fail(err)
		}
		if err := e.c.RestartOSD(stale); err != nil {
			e.fail(err)
		}
		if _, err := e.gw.Read(p, e.ecp, "obj", 0, -1); !errors.Is(err, ec.ErrTooFew) {
			t.Errorf("read of the lost object: err=%v, want %v", err, ec.ErrTooFew)
		}
		if err := e.gw.WriteFull(p, e.ecp, "obj", v3); err != nil {
			t.Errorf("full write of the lost object: %v", err)
		}
		if got, err := e.gw.Read(p, e.ecp, "obj", 0, -1); err != nil || !bytes.Equal(got, v3) {
			t.Errorf("read after the full write: err=%v, match=%v", err, bytes.Equal(got, v3))
		}
	})
}

// TestECMetaMutateKeepsKShards: an object written while an OSD was out sits
// on the OSDs that stood in for it. Once the OSD is back in, and until
// Recover moves the shards, only one member of the want set holds one. A
// metadata-only mutation stamped on that lone shard would leave it the only
// current one and the object lost, so it is refused retryably until Recover
// has run, and then lands.
func TestECMetaMutateKeepsKShards(t *testing.T) {
	e := newEnv(t)
	// An object whose want set keeps only one member when the OSD at
	// position 0 is marked out.
	oid, out := "", -1
	for i := 0; oid == ""; i++ {
		cand := fmt.Sprintf("e%d", i)
		before := slices.Clone(e.c.want(e.ecp, e.c.PGOf(e.ecp, cand)))
		e.c.cmap.SetIn(before[0].id, false)
		after := e.c.want(e.ecp, e.c.PGOf(e.ecp, cand))
		e.c.cmap.SetIn(before[0].id, true)
		if len(slices.DeleteFunc(slices.Clone(before), func(o *osd) bool { return !slices.Contains(after, o) })) == 1 {
			oid, out = cand, before[0].id
		}
	}
	data := bytes.Repeat([]byte{0x11}, 3*StripeUnit)
	setOmap := func(p *sim.Proc) error {
		return e.gw.OmapSet(p, e.ecp, oid, map[string][]byte{"k": {1}})
	}
	e.run(t, func(p *sim.Proc) {
		if err := e.c.FailOSD(out); err != nil {
			e.fail(err)
		}
		if err := e.gw.WriteFull(p, e.ecp, oid, data); err != nil {
			e.fail(err)
		}
		e.c.cmap.SetUp(out, true)
		e.c.cmap.SetIn(out, true)
		if err := setOmap(p); !errors.Is(err, ErrOSDDown) {
			t.Errorf("metadata mutation with one shard in the want set: err=%v, want %v", err, ErrOSDDown)
		}
		e.c.Recover(p)
		if err := setOmap(p); err != nil {
			t.Errorf("metadata mutation after Recover: %v", err)
		}
		if got, err := e.gw.Read(p, e.ecp, oid, 0, -1); err != nil || !bytes.Equal(got, data) {
			t.Errorf("read: err=%v, match=%v", err, bytes.Equal(got, data))
		}
		if keys, err := e.gw.OmapList(p, e.ecp, oid, 0); err != nil || !slices.Equal(keys, []string{"k"}) {
			t.Errorf("OmapList = %v, %v; want [k]", keys, err)
		}
	})
}

// TestECMutateViewSeesKillWhileParked: an EC Mutate's view remembers which
// OSDs hold current shards only while its process has not parked. A shard
// holder killed while the fn parks — in its own Read, or anywhere else — is
// gone from what the fn's later Exists and OmapGet see, and from the holders
// the metadata it returns is mirrored onto.
func TestECMutateViewSeesKillWhileParked(t *testing.T) {
	data := bytes.Repeat([]byte{0x5a}, 3*StripeUnit)
	one := func(h []*osd) []*osd { return h[1:2] }
	every := func(h []*osd) []*osd { return h }
	for _, tc := range []struct {
		name   string
		victim func(holders []*osd) []*osd
		exists bool
		read   bool // the fn parks in v.Read; else in a plain Sleep
	}{
		{"one holder/read", one, true, true},
		{"one holder/sleep", one, true, false},
		{"every holder/read", every, false, true},
		{"every holder/sleep", every, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			key := store.Key{Pool: e.ecp.ID, OID: "obj"}
			var killed []*osd
			e.run(t, func(p *sim.Proc) {
				if err := e.gw.WriteFull(p, e.ecp, "obj", data); err != nil {
					e.fail(err)
				}
				if err := e.gw.OmapSet(p, e.ecp, "obj", map[string][]byte{"k": []byte("v")}); err != nil {
					e.fail(err)
				}
				err := e.gw.Mutate(p, e.ecp, "obj", func(v View) (*store.Txn, error) {
					if !v.Exists() {
						t.Error("object missing before the read")
					}
					killed = tc.victim(e.c.ecHolders(e.ecp, "obj"))
					p.Go("kill", func(*sim.Proc) { // runs once the fn parks
						for _, o := range killed {
							if err := e.c.CrashOSD(o.id); err != nil {
								t.Error(err)
							}
						}
					})
					if !tc.read {
						p.Sleep(time.Microsecond)
					} else if got, err := v.Read(0, -1); err != nil || !bytes.Equal(got, data) {
						t.Errorf("read: err=%v, match=%v", err, bytes.Equal(got, data))
					}
					if got := v.Exists(); got != tc.exists {
						t.Errorf("after the kill Exists() = %v, want %v", got, tc.exists)
					}
					if val, err := v.OmapGet("k"); tc.exists != (err == nil && string(val) == "v") {
						t.Errorf("after the kill OmapGet = %q, %v", val, err)
					}
					if !tc.exists {
						return nil, nil
					}
					return store.NewTxn().OmapSet("k2", []byte("v2")), nil
				})
				if err != nil {
					t.Errorf("mutate: %v", err)
				}
			})
			for _, o := range e.c.osds {
				if !o.store.Exists(key) {
					continue
				}
				_, err := o.store.OmapGet(key, "k2")
				if dead := slices.Contains(killed, o); dead != (err != nil) {
					t.Errorf("osd.%d (killed %v): k2 mirrored = %v", o.id, dead, err == nil)
				}
			}
		})
	}
}

// setX returns a Mutate closure that sets xattr name to val.
func setX(name string, val byte) MutateFn {
	return func(View) (*store.Txn, error) { return store.NewTxn().SetXattr(name, []byte{val}), nil }
}

// sameCopy reports whether a and b hold the same data, xattrs, omap and
// version of key.
func sameCopy(a, b *osd, key store.Key) bool {
	sa, errA := a.store.Snapshot(key)
	sb, errB := b.store.Snapshot(key)
	return errA == nil && errB == nil && sa.Version == sb.Version && bytes.Equal(sa.Data, sb.Data) &&
		maps.EqualFunc(sa.Xattr, sb.Xattr, bytes.Equal) && maps.EqualFunc(sa.Omap, sb.Omap, bytes.Equal)
}

func (e *testEnv) heals() int64 {
	return e.c.Metrics().Counter("rados_replica_heals_total").Value()
}

// TestReplicaLegsOutOfOrder: two mutations of one object reach its replica in
// reverse order. The earlier one runs in the low-weight scrub class, and its
// leg queues behind a scrub backlog on the replica host's link; a client-class
// Mutate overtakes it. The overtaking leg finds the replica below its base
// version and heals it with the primary's copy; the late delta applies
// nothing.
func TestReplicaLegsOutOfOrder(t *testing.T) {
	e := newEnv(t)
	const oid = "obj"
	key := store.Key{Pool: e.rep.ID, OID: oid}
	acting := e.c.acting(e.rep, e.c.PGOf(e.rep, oid))
	primary, replica := acting[0], acting[1]
	slow, err := e.c.HostGatewayClass(primary.host.name, qos.Scrub)
	if err != nil {
		t.Fatal(err)
	}
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, oid, bytes.Repeat([]byte{0x11}, 4096)); err != nil {
			e.fail(err)
		}
		base := e.c.head[key]
		var backlog []*sim.Signal
		for range 3 {
			backlog = append(backlog, p.Go("backlog", func(q *sim.Proc) {
				e.c.netSend(q, qos.Scrub, replica.host.nicSched, nil, 1<<20)
			}))
		}
		late := p.Go("late", func(q *sim.Proc) {
			if err := slow.Mutate(q, e.rep, oid, setX("a", 1)); err != nil {
				e.fail(err)
			}
		})
		p.Sleep(500 * time.Microsecond)
		if e.c.head[key] == base || replica.store.Version(key) != base {
			t.Fatalf("the scrub-class mutation has not committed, or its leg already landed")
		}
		if err := e.gw.Mutate(p, e.rep, oid, setX("b", 2)); err != nil {
			e.fail(err)
		}
		healed := replica.store.Version(key)
		if healed != e.c.head[key] || e.heals() != 1 {
			t.Errorf("after the overtaking Mutate the replica is at version %d (head %d), %d heals", healed, e.c.head[key], e.heals())
		}
		sim.WaitAll(p, late)
		if v := replica.store.Version(key); v != healed {
			t.Errorf("the late leg moved the healed replica from version %d to %d", healed, v)
		}
		sim.WaitAll(p, backlog...)
	})
	if !e.c.current(replica, key) || !sameCopy(primary, replica, key) {
		t.Errorf("the replica does not end current with the primary's copy")
	}
	if e.heals() != 1 {
		t.Errorf("rados_replica_heals_total = %d, want 1", e.heals())
	}
}

// TestReplicaHealRefusedInFlight: a replica that missed a write while crashed
// is healed by the next write's leg. A third write commits while that heal's
// copy is on the wire, so its install is refused, and the third write's own
// leg heals the replica instead.
func TestReplicaHealRefusedInFlight(t *testing.T) {
	e := newEnv(t)
	other := e.c.NewGateway("client1")
	const oid = "obj"
	key := store.Key{Pool: e.rep.ID, OID: oid}
	acting := e.c.acting(e.rep, e.c.PGOf(e.rep, oid))
	primary, replica := acting[0], acting[1]
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, oid, bytes.Repeat([]byte{0x11}, raceSize)); err != nil {
			e.fail(err)
		}
		if err := e.c.CrashOSD(replica.id); err != nil {
			e.fail(err)
		}
		if err := e.gw.Mutate(p, e.rep, oid, setX("a", 1)); err != nil {
			e.fail(err)
		}
		if err := e.c.RestartOSD(replica.id); err != nil {
			e.fail(err)
		}
		heal := p.Go("heal", func(q *sim.Proc) {
			if err := e.gw.Mutate(q, e.rep, oid, setX("b", 2)); err != nil {
				e.fail(err)
			}
		})
		p.Sleep(400 * time.Microsecond) // the heal's 1 MiB copy is on the wire
		if err := other.Mutate(p, e.rep, oid, setX("c", 3)); err != nil {
			e.fail(err)
		}
		sim.WaitAll(p, heal)
	})
	if e.refusedInstalls() != 1 || e.heals() != 1 {
		t.Errorf("%d installs refused and %d heals, want one each", e.refusedInstalls(), e.heals())
	}
	if !e.c.current(replica, key) || !sameCopy(primary, replica, key) {
		t.Errorf("the replica does not end current with the primary's copy")
	}
}
