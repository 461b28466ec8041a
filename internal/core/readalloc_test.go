package core_test

import (
	"bytes"
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
// (events, spans, the decoded chunk map) — not once per layer it crosses.
// The EC case still copies each shard segment out of its OSD's store on the
// way, so its bound is one payload higher. (An external test: internal/client
// imports this package.)
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
		{"redirected to the EC cold pool", 2.5, [2]string{"cold", "cold"},
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
