package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

func BenchmarkFingerprintID32K(b *testing.B) {
	data := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FingerprintID(data)
	}
}

func BenchmarkChunkMapMarshal(b *testing.B) {
	cm := &ChunkMap{}
	for i := 0; i < 128; i++ { // a 4MB object at 32K chunks
		cm.Upsert(Entry{Start: int64(i) * 32768, End: int64(i+1) * 32768, ChunkID: FingerprintID([]byte{byte(i)})})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := cm.Marshal()
		if _, err := UnmarshalChunkMap(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePathSimulated measures host-side cost of simulating one
// dedup write (client op through the DES), i.e. how much real CPU one
// virtual I/O costs the experiment harness.
func BenchmarkWritePathSimulated(b *testing.B) {
	eng := sim.New(1)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	cfg := DefaultConfig()
	cfg.Rate.Enabled = false
	cfg.HitSet.HitCount = 1000
	s, err := Open(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cl := s.Client("bench")
	data := make([]byte, 8<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	eng.Go("writer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := cl.Write(p, fmt.Sprintf("o%d", i%512), int64(i%128)*8192, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	eng.Run()
}

// BenchmarkClientRead64K measures the host-side cost of simulating one 64 KiB
// dedup read whose two chunks are cached in the metadata object: B/op shows
// how many times the payload is allocated on its way up to the caller.
func BenchmarkClientRead64K(b *testing.B) {
	eng := sim.New(1)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	cfg := DefaultConfig()
	cfg.Rate.Enabled = false
	cfg.HitSet.HitCount = 1000
	s, err := Open(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cl := s.Client("bench")
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	eng.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			if err := cl.Write(p, fmt.Sprintf("o%d", i), 0, data); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got, err := cl.Read(p, fmt.Sprintf("o%d", i%64), 0, int64(len(data))); err != nil || len(got) != len(data) {
				b.Fatalf("read: %d bytes, err %v", len(got), err)
			}
		}
	})
	eng.Run()
}
