package core

import (
	"bytes"
	"math/rand"
	"testing"

	"dedupstore/internal/sim"
)

func TestSnapshotSharesChunks(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := make([]byte, 20000)
	rand.New(rand.NewSource(1)).Read(data)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "vol", 0, data) })
	e.drain(t)
	before := e.c.PoolStats(e.s.chunk)

	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Snapshot(p, "vol", "vol@snap1"); err != nil {
			t.Fatal(err)
		}
	})
	after := e.c.PoolStats(e.s.chunk)
	if after.LogicalBytes != before.LogicalBytes || after.Objects != before.Objects {
		t.Fatalf("snapshot copied data: %+v -> %+v", before, after)
	}
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "vol@snap1", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("snapshot read: %v", err)
		}
	})
	e.checkIntegrity(t)
}

func TestSnapshotDivergesOnWrite(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := make([]byte, 12288)
	rand.New(rand.NewSource(2)).Read(data)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "vol", 0, data) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Snapshot(p, "vol", "vol@s"); err != nil {
			t.Fatal(err)
		}
	})
	// Overwrite part of the source: the snapshot must keep the old bytes.
	patch := bytes.Repeat([]byte{0xCD}, 4096)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "vol", 4096, patch); err != nil {
			t.Fatal(err)
		}
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		snapGot, err := e.cl.Read(p, "vol@s", 0, -1)
		if err != nil || !bytes.Equal(snapGot, data) {
			t.Fatalf("snapshot changed after source write: %v", err)
		}
		want := append([]byte(nil), data...)
		copy(want[4096:], patch)
		srcGot, err := e.cl.Read(p, "vol", 0, -1)
		if err != nil || !bytes.Equal(srcGot, want) {
			t.Fatalf("source wrong after write: %v", err)
		}
	})
	e.checkIntegrity(t)
}

func TestSnapshotDeleteOrderIndependent(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := make([]byte, 8192)
	rand.New(rand.NewSource(3)).Read(data)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "vol", 0, data) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Snapshot(p, "vol", "vol@s"); err != nil {
			t.Fatal(err)
		}
		// Delete the ORIGINAL first: chunks must survive for the snapshot.
		if err := e.cl.Delete(p, "vol"); err != nil {
			t.Fatal(err)
		}
		got, err := e.cl.Read(p, "vol@s", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("snapshot lost data after source delete: %v", err)
		}
		if err := e.cl.Delete(p, "vol@s"); err != nil {
			t.Fatal(err)
		}
	})
	if n := len(e.c.ListObjects(e.s.chunk)); n != 0 {
		t.Fatalf("%d chunks leaked after deleting both", n)
	}
}

func TestSnapshotRequiresFlushed(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.run(t, func(p *sim.Proc) {
		e.cl.Write(p, "vol", 0, bytes.Repeat([]byte{1}, 4096))
		if err := e.cl.Snapshot(p, "vol", "vol@s"); err != ErrSnapshotDirty {
			t.Fatalf("err = %v, want ErrSnapshotDirty", err)
		}
	})
}

func TestSnapshotValidation(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := bytes.Repeat([]byte{2}, 4096)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "vol", 0, data) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Snapshot(p, "vol", "vol"); err == nil {
			t.Error("self-snapshot accepted")
		}
		if err := e.cl.Snapshot(p, "ghost", "x"); err == nil {
			t.Error("snapshot of missing object accepted")
		}
		if err := e.cl.Snapshot(p, "vol", "vol@s"); err != nil {
			t.Fatal(err)
		}
		if err := e.cl.Snapshot(p, "vol", "vol@s"); err == nil {
			t.Error("overwrite of existing snapshot accepted")
		}
	})
}

func TestManySnapshotsRefcount(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := bytes.Repeat([]byte{9}, 4096)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "vol", 0, data) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := e.cl.Snapshot(p, "vol", string(rune('a'+i))+"@snap"); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(chunkState(t, p, e, e.s.chunk, FingerprintID(data)).refs); n != 6 { // vol + 5 snapshots
			t.Fatalf("%d committed references, want 6", n)
		}
	})
	e.checkIntegrity(t)
}
