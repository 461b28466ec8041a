package experiments

import (
	"fmt"

	"dedupstore/internal/client"
	"dedupstore/internal/compressfs"
	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
	"dedupstore/internal/workload"
)

// fig13 reproduces Figure 13: ten identical-OS VM images written as thick
// images (zeros included, as the paper's 8GB images were), under
// replication, EC, and their combinations with deduplication and node-local
// (Btrfs-style) compression. Deduplication collapses the shared OS blocks
// and the zero blocks; compression shrinks what remains. One line per
// combination: the cumulative storage footprint as the images are added.
func fig13(sc Scale) []Table {
	images := 10
	imgCfg := workload.VMImageConfig{
		ImageSize: sc.bytes(8 << 20), // paper: 8GB images
		OSFrac:    0.07,
		HomeFrac:  0.0125,
		BlockSize: 32 << 10,
		Seed:      801,
		Thick:     true,
	}

	type fig13Case struct {
		label    string
		seed     int64
		red      rados.Redundancy
		dedup    bool
		compress bool
	}
	cases := []fig13Case{
		{"rep", 810, rados.ReplicatedN(2), false, false},
		{"ec", 811, rados.ErasureKM(2, 1), false, false},
		{"rep+dedup", 812, rados.ReplicatedN(2), true, false},
		{"rep+dedup+comp", 813, rados.ReplicatedN(2), true, true},
		{"ec+dedup", 814, rados.ErasureKM(2, 1), true, false},
		{"ec+dedup+comp", 815, rados.ErasureKM(2, 1), true, true},
	}
	// footprints[c][i] is case c's footprint after writing image i+1.
	footprints := Runs(sc, cases, func(tb *Testbed, c fig13Case) []int64 {
		var opts []rados.Option
		if c.compress {
			opts = append(opts, rados.WithStoreOptions(store.WithSizeFn(compressfs.Default())))
		}
		h := tb.harness(c.seed, 4, 4, opts...)

		var used []int64
		var s *core.Store
		var rawPool *rados.Pool
		var gwRaw *rados.Gateway
		if c.dedup {
			s = h.dedupStore(func(dc *core.Config) {
				dc.ChunkRedundancy = c.red
				dc.Rate.Enabled = false
				dc.HitSet.HitCount = 1000
				dc.DedupThreads = 8
			})
		} else {
			rawPool, gwRaw = h.rawPool("vmpool", c.red)
		}
		for vm := 0; vm < images; vm++ {
			name := fmt.Sprintf("vm%d", vm)
			var dev *client.BlockDevice
			if c.dedup {
				dev = h.dedupDevice(name, imgCfg.ImageSize, s)
			} else {
				dev = must(client.NewBlockDevice(name, imgCfg.ImageSize, 1<<20, &client.RawBackend{GW: gwRaw, Pool: rawPool}))
			}
			h.run(func(p *sim.Proc) {
				check(workload.WriteVMImage(p, dev, imgCfg, vm))
				if c.dedup {
					s.Engine().DrainAndWait(p)
				}
			})
			if c.dedup {
				used = append(used, h.footprint(s))
			} else {
				used = append(used, h.c.PoolStats(rawPool).StoredTotal())
			}
		}
		return used
	})
	t := Table{
		Title:   "Figure 13: cumulative VM-image footprint (thick 8GB-scaled images)",
		Columns: []string{"images"},
		Notes: []string{
			"paper shape: rep 160GB, EC 120GB; rep+dedup ~2.2GB with ~200MB per extra image; ec+dedup+comp lowest",
		},
	}
	for _, c := range cases {
		t.Columns = append(t.Columns, c.label)
	}
	for i := 0; i < images; i++ {
		row := []string{fmt.Sprint(i + 1)}
		for _, u := range footprints {
			row = append(row, mb(u[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}
