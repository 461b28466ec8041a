package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

func rawDevice(t *testing.T, objectSize int64) (*sim.Engine, *BlockDevice) {
	t.Helper()
	eng := sim.New(3)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	pool, err := c.CreatePool(rados.PoolConfig{Name: "rbd", PGNum: 64, Redundancy: rados.ReplicatedN(2)})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewBlockDevice("img", 1<<20, objectSize, &RawBackend{GW: c.NewGateway("cl"), Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev
}

func run(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	var panicked error
	eng.Go("test", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				panicked = fmt.Errorf("panic: %v", r)
			}
		}()
		fn(p)
	})
	eng.Run()
	if panicked != nil {
		t.Fatal(panicked)
	}
}

func TestBlockDeviceRoundTrip(t *testing.T) {
	eng, dev := rawDevice(t, 64<<10)
	data := make([]byte, 100000) // spans 2 objects
	rand.New(rand.NewSource(1)).Read(data)
	run(t, eng, func(p *sim.Proc) {
		if err := dev.WriteAt(p, 30000, data); err != nil {
			t.Fatal(err)
		}
		got, err := dev.ReadAt(p, 30000, int64(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip: %v", err)
		}
	})
}

func TestBlockDeviceHolesReadZero(t *testing.T) {
	eng, dev := rawDevice(t, 64<<10)
	run(t, eng, func(p *sim.Proc) {
		got, err := dev.ReadAt(p, 500000, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != 0 {
				t.Fatal("hole read nonzero")
			}
		}
	})
}

// TestBlockDeviceReadAtShapes covers each way ReadAt comes by its result:
// the backend's buffer handed on (one object, full length), and the
// zero-filled assembly for a short object, a hole and a range spanning
// objects. Every result is exactly length bytes, equals a shadow image, and
// belongs to the caller: scribbling on it must not reach the store.
func TestBlockDeviceReadAtShapes(t *testing.T) {
	const obj = 64 << 10
	eng, dev := rawDevice(t, obj)
	shadow := make([]byte, dev.Size())
	rng := rand.New(rand.NewSource(5))
	run(t, eng, func(p *sim.Proc) {
		for _, w := range []struct{ off, n int64 }{
			{2 * obj, obj},      // object 2 fully written
			{4 * obj, 10 << 10}, // object 4 short
			{8 * obj, 2 * obj},  // objects 8 and 9 fully written; 10 is a hole
		} {
			rng.Read(shadow[w.off : w.off+w.n])
			if err := dev.WriteAt(p, w.off, shadow[w.off:w.off+w.n]); err != nil {
				t.Error(err)
				return
			}
		}
		for _, r := range []struct {
			name        string
			off, length int64
		}{
			{"full object", 2*obj + 4096, 16 << 10},
			{"whole object", 2 * obj, obj},
			{"short object", 4 * obj, 32 << 10},
			{"past a short object's end", 4*obj + 20<<10, 4096},
			{"hole", 6 * obj, 4096},
			{"two objects", 8*obj + 60<<10, 20 << 10},
			{"object then hole", 9*obj + 60<<10, 20 << 10},
			{"empty", 2 * obj, 0},
		} {
			for pass := 0; pass < 2; pass++ { // the second pass sees any damage the first did
				got, err := dev.ReadAt(p, r.off, r.length)
				if err != nil || int64(len(got)) != r.length || !bytes.Equal(got, shadow[r.off:r.off+r.length]) {
					t.Errorf("%s, pass %d: err %v, %d bytes (want %d), equal to what was written: %v",
						r.name, pass, err, len(got), r.length, bytes.Equal(got, shadow[r.off:r.off+r.length]))
				}
				for i := range got {
					got[i] ^= 0x5A
				}
			}
		}
	})
}

func TestBlockDeviceBounds(t *testing.T) {
	eng, dev := rawDevice(t, 64<<10)
	run(t, eng, func(p *sim.Proc) {
		if err := dev.WriteAt(p, dev.Size()-10, make([]byte, 20)); err == nil {
			t.Fatal("out-of-bounds write accepted")
		}
		if _, err := dev.ReadAt(p, -1, 10); err == nil {
			t.Fatal("negative-offset read accepted")
		}
	})
}

func TestBlockDeviceStriping(t *testing.T) {
	eng, dev := rawDevice(t, 64<<10)
	if dev.ObjectCount() != 16 {
		t.Fatalf("object count = %d, want 16", dev.ObjectCount())
	}
	run(t, eng, func(p *sim.Proc) {
		// A write crossing three stripe objects.
		data := make([]byte, 3*64<<10)
		for i := range data {
			data[i] = byte(i)
		}
		if err := dev.WriteAt(p, 32<<10, data); err != nil {
			t.Fatal(err)
		}
		got, err := dev.ReadAt(p, 32<<10, int64(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("striped round trip: %v", err)
		}
	})
}

func TestBlockDeviceOnDedupStore(t *testing.T) {
	eng := sim.New(4)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	cfg := core.DefaultConfig()
	cfg.ChunkSize = 8 << 10
	cfg.Rate.Enabled = false
	s, err := core.Open(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewBlockDevice("img", 1<<20, 256<<10, &DedupBackend{Client: s.Client("cl")})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(2)).Read(data)
	run(t, eng, func(p *sim.Proc) {
		if err := dev.WriteAt(p, 12345, data); err != nil {
			t.Fatal(err)
		}
	})
	run(t, eng, func(p *sim.Proc) { s.Engine().DrainAndWait(p) })
	run(t, eng, func(p *sim.Proc) {
		got, err := dev.ReadAt(p, 12345, int64(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("dedup-backed device round trip: %v", err)
		}
	})
}

func TestDiscard(t *testing.T) {
	eng, dev := rawDevice(t, 64<<10)
	run(t, eng, func(p *sim.Proc) {
		data := bytes.Repeat([]byte{1}, 128<<10)
		if err := dev.WriteAt(p, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := dev.Discard(p, 0, 64<<10); err != nil {
			t.Fatal(err)
		}
		got, err := dev.ReadAt(p, 0, 128<<10)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64<<10; i++ {
			if got[i] != 0 {
				t.Fatal("discarded region nonzero")
			}
		}
		for i := 64 << 10; i < 128<<10; i++ {
			if got[i] != 1 {
				t.Fatal("undiscarded region corrupted")
			}
		}
	})
}

func TestInvalidDevice(t *testing.T) {
	if _, err := NewBlockDevice("x", 0, 0, nil); err == nil {
		t.Fatal("zero-size device accepted")
	}
}

func TestQuickBlockDeviceConsistency(t *testing.T) {
	eng, dev := rawDevice(t, 32<<10)
	model := make([]byte, dev.Size())
	prop := func(off uint32, size uint16, fill byte) bool {
		o := int64(off) % (dev.Size() - 1)
		n := int64(size)%8192 + 1
		if o+n > dev.Size() {
			n = dev.Size() - o
		}
		ok := true
		run(t, eng, func(p *sim.Proc) {
			data := bytes.Repeat([]byte{fill}, int(n))
			if err := dev.WriteAt(p, o, data); err != nil {
				ok = false
				return
			}
			copy(model[o:], data)
			got, err := dev.ReadAt(p, o, n)
			if err != nil || !bytes.Equal(got, model[o:o+n]) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
