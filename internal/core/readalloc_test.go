package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

// TestClientReadAllocatesOnce: a read fills one buffer. A 64 KiB block-device
// read of a two-chunk object may allocate the payload once plus small change
// (events, spans, the decoded chunk map) — not once per layer it crosses,
// and on the EC pool not once more per shard segment: the join reads the
// shards where they are stored. (An external test: internal/client imports
// this package.)
func TestClientReadAllocatesOnce(t *testing.T) {
	const chunk, size, reads = 32 << 10, 64 << 10, 200
	cases := []struct {
		name  string
		bound float64 // bytes allocated per read, in payloads
		want  [2]string
		prep  func(p *sim.Proc, s *core.Store, dev *client.BlockDevice, data []byte) error
	}{
		{"cached+cached", 1.5, [2]string{"cached", "cached"},
			func(*sim.Proc, *core.Store, *client.BlockDevice, []byte) error { return nil }},
		{"cached+redirected", 1.5, [2]string{"cached", "warm"},
			func(p *sim.Proc, s *core.Store, dev *client.BlockDevice, data []byte) error {
				s.Engine().DrainAndWait(p) // both chunks leave for the chunk pool
				return dev.WriteAt(p, 0, data[:chunk])
			}},
		{"redirected to the EC cold pool", 1.5, [2]string{"cold", "cold"},
			func(p *sim.Proc, s *core.Store, _ *client.BlockDevice, _ []byte) error {
				p.Sleep(700 * time.Millisecond) // the write's access rolls out of every hitset slice
				s.Engine().DrainAndWait(p)
				return nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(11)
			cfg := core.DefaultConfig()
			cfg.ChunkSize = chunk
			cfg.Rate.Enabled = false
			cfg.Tiering = core.DefaultTiering()
			cfg.HitSet.Period = 100 * time.Millisecond
			cfg.HitSet.Retain = 4
			s, err := core.Open(rados.NewTestbed(eng, simcost.Default(), 4, 4), cfg)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := client.NewBlockDevice("img", size, size, &client.DedupBackend{Client: s.Client("client0")})
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i>>8) ^ byte(i)
			}
			eng.Go("test", func(p *sim.Proc) {
				if err := dev.WriteAt(p, 0, data); err != nil {
					t.Error(err)
					return
				}
				if err := tc.prep(p, s, dev, data); err != nil {
					t.Error(err)
					return
				}
				if got := chunkStates(t, p, s, dev.ObjectName(0)); got != tc.want {
					t.Errorf("chunks are %v, want %v: the test no longer builds the case it names", got, tc.want)
					return
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < reads; i++ {
					got, err := dev.ReadAt(p, 0, size)
					if err != nil || !bytes.Equal(got, data) {
						t.Errorf("read %d: err %v, equal to what was written: %v", i, err, bytes.Equal(got, data))
						return
					}
				}
				runtime.ReadMemStats(&after)
				perRead := float64(after.TotalAlloc-before.TotalAlloc) / reads / size
				t.Logf("%.2f payloads allocated per read", perRead)
				if perRead >= tc.bound {
					t.Errorf("a %d-byte read allocates %.2f x its payload, want under %.1f x", size, perRead, tc.bound)
				}
			})
			eng.Run()
		})
	}
}

// chunkStates reports where each of a two-chunk object's chunks lives:
// "cached" in the metadata object, else in the "warm" (replicated) or "cold"
// (erasure-coded) chunk pool.
func chunkStates(t *testing.T, p *sim.Proc, s *core.Store, oid string) (states [2]string) {
	raw, err := s.Cluster().NewGateway("probe").GetXattr(p, s.MetaPool(), oid, core.XattrChunkMap)
	if err != nil {
		t.Error(err)
		return
	}
	cm, err := core.UnmarshalChunkMap(raw)
	if err != nil || len(cm.Entries) != len(states) {
		t.Errorf("chunk map of %s: %d entries, err %v", oid, len(cm.Entries), err)
		return
	}
	for i, e := range cm.Entries {
		switch {
		case e.Cached:
			states[i] = "cached"
		case e.Cold:
			states[i] = "cold"
		default:
			states[i] = "warm"
		}
	}
	return states
}

// allocEnv is a dedup store with 32 KiB chunks on the 4 × 4 testbed, its
// chunk pool replicated rep times.
func allocEnv(t testing.TB, rep int) (*sim.Engine, *core.Store) {
	eng := sim.New(11)
	cfg := core.DefaultConfig()
	cfg.Rate.Enabled = false
	cfg.ChunkRedundancy = rados.ReplicatedN(rep)
	s, err := core.Open(rados.NewTestbed(eng, simcost.Default(), 4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Cluster().Trace().SetSample(1 << 30) // untraced, as the benchmark's timed runs are
	return eng, s
}

// writeChunks writes n chunks as n/slots objects of slots chunks each, named
// prefix0…: n different contents when distinct, 8 (whatever the prefix) when
// not.
func writeChunks(t testing.TB, p *sim.Proc, s *core.Store, prefix string, n, slots int, distinct bool) {
	const chunk = 32 << 10
	cl := s.Client("client0")
	data := make([]byte, slots*chunk)
	for i := 0; i < n; i += slots {
		for j := 0; j < slots; j++ {
			data[j*chunk] = byte((i + j) % 8)
			if distinct {
				copy(data[j*chunk:], fmt.Sprintf("%s%d", prefix, i+j))
			}
		}
		if err := cl.Write(p, fmt.Sprintf("%s%d", prefix, i/slots), 0, data); err != nil {
			t.Error(err)
		}
	}
}

// allocated runs fn and returns the bytes the process allocated meanwhile.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// drainAlloc flushes 256 dirty chunks held in objects of slots chunks each —
// all chunks the pool already has, or each a new one — and returns the bytes
// allocated per flushed chunk, in chunks.
func drainAlloc(t *testing.T, rep, slots int, distinct bool) (perChunk float64) {
	const chunks, chunk = 256, 32 << 10
	eng, s := allocEnv(t, rep)
	eng.Go("test", func(p *sim.Proc) {
		writeChunks(t, p, s, "warm", max(8, 2*slots), slots, distinct) // the pool holds the duplicates; scratch buffers exist
		s.Engine().DrainAndWait(p)
		writeChunks(t, p, s, "o", chunks, slots, distinct)
		before := s.Engine().Stats()
		perChunk = float64(allocated(func() { s.Engine().DrainAndWait(p) })) / chunks / chunk
		st := s.Engine().Stats()
		if flushed, dup := st.ChunksFlushed-before.ChunksFlushed, st.DupChunks-before.DupChunks; flushed != chunks || (dup == chunks) == distinct {
			t.Errorf("flushed %d chunks, %d of them duplicates: the test no longer builds the case it names", flushed, dup)
		}
	})
	eng.Run()
	return perChunk
}

// TestFlushAllocatesOneCopyPerNewChunk: the flush reads a dirty chunk into a
// scratch buffer, so a chunk the pool already holds costs no payload
// allocation at all — what is left is the flush's bookkeeping (transactions,
// events, the chunk map), about a fifth of a 32 KiB chunk — and a new chunk
// is copied exactly once, the copy its object keeps, however many replicas
// then share it. (Before the sharing rule: 1 x for a duplicate, and 1 x + one
// per replica for a new chunk.) A 32-chunk object is one transition, so its
// chunk map is decoded and encoded once per flush, not once per chunk: its
// chunks cost no more than a one-chunk object's.
func TestFlushAllocatesOneCopyPerNewChunk(t *testing.T) {
	for _, rep := range []int{2, 3} {
		for _, slots := range []int{1, 32} {
			dup, fresh := drainAlloc(t, rep, slots, false), drainAlloc(t, rep, slots, true)
			t.Logf("rep x%d, %d-chunk objects: %.3f chunks allocated per duplicate chunk flushed, %.3f per new chunk", rep, slots, dup, fresh)
			if dup >= 0.25 {
				t.Errorf("rep x%d, %d-chunk objects: flushing a duplicate chunk allocates %.2f x its bytes, want under 0.25 x", rep, slots, dup)
			}
			if fresh-dup >= 1.15 || fresh >= 1.4 {
				t.Errorf("rep x%d, %d-chunk objects: flushing a new chunk allocates %.2f x its bytes, %.2f x more than a duplicate; want one copy (under 1.15 x more, under 1.4 x in all)", rep, slots, fresh, fresh-dup)
			}
		}
	}
}

// TestScrubBorrowsChunks: the dedup scrub only hashes chunk payloads, and on
// a replicated pool reads them in place.
func TestScrubBorrowsChunks(t *testing.T) {
	const chunks, chunk = 256, 32 << 10
	eng, s := allocEnv(t, 2)
	eng.Go("test", func(p *sim.Proc) {
		writeChunks(t, p, s, "o", chunks, 1, true)
		s.Engine().DrainAndWait(p)
		var rep core.ScrubReport
		var err error
		perChunk := float64(allocated(func() { rep, err = s.Scrub(p) })) / chunks / chunk
		if err != nil || !rep.Clean() || rep.ChunkObjects != chunks || rep.BytesVerified != chunks*chunk {
			t.Errorf("scrub: err %v, report %+v", err, rep)
		}
		t.Logf("%.3f chunks allocated per scrubbed chunk", perChunk)
		if perChunk >= 0.1 {
			t.Errorf("scrubbing a chunk allocates %.2f x its bytes, want under 0.1 x", perChunk)
		}
	})
	eng.Run()
}
