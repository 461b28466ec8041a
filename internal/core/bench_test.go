package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dedupstore/internal/qos"
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

// benchStore is a default-config store (32 KiB chunks, rep x2) with tracing
// sampled off, as in the benchmark's timed runs.
func benchStore(b *testing.B) (*sim.Engine, *Store) {
	eng := sim.New(1)
	cfg := DefaultConfig()
	cfg.Rate.Enabled = false
	s, err := Open(rados.NewTestbed(eng, simcost.Default(), 4, 4), cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.cluster.Trace().SetSample(1 << 30)
	return eng, s
}

// BenchmarkFlushObject measures flushing one object of 32 dirty 32 KiB slots
// — read, fingerprint, one rebind — when every slot's content is new to the
// chunk pool (new), when the pool already holds all of it (dup), and when the
// slots were rewritten with the bytes they are already bound to (same: no
// chunk-pool I/O at all). sim-µs/op is what the modelled cluster takes for the
// object; B/op is the host's side: a duplicate's payload is only hashed, a new
// chunk's is copied once for all replicas, and the chunk map is encoded once
// per object. Writing the object is outside the timer.
func BenchmarkFlushObject(b *testing.B) {
	const slots, chunk = 32, 32 << 10
	for _, variant := range []string{"new", "dup", "same"} {
		b.Run(variant, func(b *testing.B) {
			eng, s := benchStore(b)
			cl := s.Client("bench")
			data := make([]byte, slots*chunk)
			for i := 0; i < slots; i++ {
				data[i*chunk] = byte(i) // 32 different chunks
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			var simTime sim.Time
			eng.Go("flusher", func(p *sim.Proc) {
				for i := -1; i < b.N; i++ { // iteration -1 fills the pool and the scratch list
					b.StopTimer()
					oid := fmt.Sprintf("o%d", i)
					switch variant {
					case "new":
						for j := 0; j < slots; j++ {
							binary.LittleEndian.PutUint32(data[j*chunk+1:], uint32(i))
						}
					case "same":
						oid = "o"
					}
					if err := cl.Write(p, oid, 0, data); err != nil {
						b.Fatal(err)
					}
					gw, host, err := s.metaPrimaryGW(oid, qos.Dedup)
					if err != nil {
						b.Fatal(err)
					}
					start := p.Now()
					b.StartTimer()
					if err := s.engine.flushObject(p, gw, host, oid, true); err != nil {
						b.Fatal(err)
					}
					if i >= 0 {
						simTime += p.Now() - start
					}
				}
			})
			eng.Run()
			b.ReportMetric(simTime.Seconds()*1e6/float64(b.N), "sim-µs/op")
		})
	}
}

// BenchmarkScrubChunkPool measures one dedup-scrub pass over a pool of 256
// chunks of 32 KiB: every payload is read and hashed, none is kept.
func BenchmarkScrubChunkPool(b *testing.B) {
	const chunks = 256
	eng, s := benchStore(b)
	cl := s.Client("bench")
	data := make([]byte, 32<<10)
	b.SetBytes(chunks * int64(len(data)))
	b.ReportAllocs()
	eng.Go("scrubber", func(p *sim.Proc) {
		for i := 0; i < chunks; i++ {
			data[0] = byte(i)
			if err := cl.Write(p, fmt.Sprintf("o%d", i), 0, data); err != nil {
				b.Fatal(err)
			}
		}
		s.engine.DrainAndWait(p)
		gw := s.hostGWClass(anyHost(s), qos.Scrub)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var rep ScrubReport
			if err := s.scrubChunkPool(p, gw, s.chunk, &rep); err != nil || rep.ChunkObjects != chunks || !rep.Clean() {
				b.Fatalf("scrub: err %v, report %+v", err, rep)
			}
		}
	})
	eng.Run()
}
