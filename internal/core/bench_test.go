package core

import (
	"bytes"
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

// benchStore is a default-config store (32 KiB chunks, rep x2), tracing
// every span as the benchmark's timed runs do.
func benchStore(b *testing.B) (*sim.Engine, *Store) {
	eng := sim.New(1)
	cfg := DefaultConfig()
	cfg.Rate.Enabled = false
	s, err := Open(rados.NewTestbed(eng, simcost.Default(), 4, 4), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng, s
}

// BenchmarkFlushObject measures flushing one object of 32 dirty 32 KiB slots
// — one read, fingerprint, one rebind — when every slot's content is new to
// the chunk pool (new), when the pool already holds all of it (dup), and when
// the slots were rewritten with the bytes they are already bound to (same: no
// chunk-pool I/O at all); and flushing the same object after a first flush
// and a rewrite of every other slot with new content (sparse: 16 one-slot
// runs, so 16 reads). sim-µs/op is what the modelled cluster takes for the
// object; B/op is the host's side: a duplicate's payload is only hashed, a new
// chunk's is copied once for all replicas, and the chunk map is encoded once
// per object. Only the flushes of iterations 0..N-1 are timed: building the
// store, the warm-up iteration, writing each object, sparse's first flush and
// the engine's work after the last flush are not, so B/op is the flushes'
// own at any -benchtime.
func BenchmarkFlushObject(b *testing.B) {
	const slots, chunk = 32, 32 << 10
	for _, variant := range []string{"new", "dup", "same", "sparse"} {
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
					case "new", "sparse":
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
					if variant == "sparse" {
						if err := s.engine.flushObject(p, gw, host, oid, true); err != nil {
							b.Fatal(err)
						}
						for j := 0; j < slots; j += 2 {
							binary.LittleEndian.PutUint32(data[j*chunk+5:], ^uint32(i))
							if err := cl.Write(p, oid, int64(j*chunk), data[j*chunk:(j+1)*chunk]); err != nil {
								b.Fatal(err)
							}
						}
					}
					start := p.Now()
					if i >= 0 {
						b.StartTimer()
					}
					if err := s.engine.flushObject(p, gw, host, oid, true); err != nil {
						b.Fatal(err)
					}
					if i >= 0 {
						simTime += p.Now() - start
					}
				}
				b.StopTimer() // the engine's work after the last flush is not a flush's
			})
			b.ResetTimer() // nor is building the store
			eng.Run()
			b.ReportMetric(simTime.Seconds()*1e6/float64(b.N), "sim-µs/op")
		})
	}
}

// BenchmarkScrubChunkPool measures a first dedup-scrub pass over a pool of 256
// freshly flushed chunks of 32 KiB. The flush taught the name memo every
// chunk, and each payload read is the very array the memo keeps, so its
// verdict is that identity: no SHA-256, no CRC-32C and no byte compare. A
// pass keeps nothing for the next, so every iteration is a first pass.
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
			j := newScrubJoin()
			if err := s.eachChunk(func(cpool *rados.Pool, id string) error {
				return s.scrubChunk(p, gw, cpool, id, j, &rep)
			}); err != nil || rep.ChunkObjects != chunks || !rep.Clean() {
				b.Fatalf("scrub: err %v, report %+v", err, rep)
			}
		}
	})
	eng.Run()
}

var nameSink string

// BenchmarkName measures naming one 32 KiB payload: a hit is a CRC-32C, a map
// lookup and a compare with the kept bytes; a miss is the CRC-32C and SHA-256.
// The guess rows name it through nameAs with the chunk's own name: the kept
// array itself is two map lookups, equal bytes elsewhere add the compare, and
// a wrong guess (changed bytes) falls through to the miss.
func BenchmarkName(b *testing.B) {
	data := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(data)
	s := &Store{names: newNameMemo()}
	id := FingerprintID(data)
	s.names.learn(id, data)
	other := bytes.Clone(data)
	other[0] ^= 1
	for _, bc := range []struct {
		name  string
		data  []byte
		guess string // "": name, no guess
	}{
		{"hit", bytes.Clone(data), ""},
		{"miss", other, ""},
		{"guess/kept-array", data, id},
		{"guess/equal-bytes", bytes.Clone(data), id},
		{"guess/wrong", other, id},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.guess == "" {
					nameSink = s.name(bc.data)
				} else {
					nameSink = s.nameAs(bc.data, bc.guess)
				}
			}
			b.StopTimer()
			if want := FingerprintID(bc.data); nameSink != want {
				b.Fatalf("named %s, want %s", nameSink, want)
			}
		})
	}
}
