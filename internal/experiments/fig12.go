package experiments

import (
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/workload"
)

// Fig12Row is one configuration's results for the SPEC SFS 2014 database
// workload evaluation (Figure 12 a–e).
type Fig12Row struct {
	Config      string
	Throughput  float64 // MB/s (a)
	MeanLatency time.Duration
	ReadIOPS    float64
	WriteIOPS   float64
	ReadLat     time.Duration
	WriteLat    time.Duration
	StorageUsed int64
}

// Fig12 reproduces Figure 12: the SFS database workload (fixed request
// rate) on four configurations — Replication, Proposed (dedup over
// replication), EC, and Proposed-EC (dedup with an erasure-coded chunk
// pool). The SFS property that total throughput is demand-bound (not
// capacity-bound) makes Replication and Proposed match on throughput while
// latency and storage differ; EC pays its read-modify-write penalty.
func Fig12(sc Scale) []Fig12Row {
	sfsCfg := workload.SFSConfig{
		Loads:            4,
		BytesPerLoad:     sc.bytes(6 << 20), // paper: 240GB total, metric 10
		OpsPerSecPerLoad: 3000,
		WorkersPerLoad:   2,
		Duration:         scaledDuration(sc, 10*time.Second),
		PageSize:         8 << 10,
		Seed:             601,
	}
	devSize := int64(sfsCfg.Loads) * sfsCfg.BytesPerLoad

	type setup struct {
		name  string
		build func(h *harness) (*client.BlockDevice, *core.Store)
	}
	setups := []setup{
		{"Replication", func(h *harness) (*client.BlockDevice, *core.Store) {
			return h.rawDevice("img", devSize, 0, rados.ReplicatedN(2)), nil
		}},
		{"Proposed", func(h *harness) (*client.BlockDevice, *core.Store) {
			s := h.dedupStore(nil) // paper defaults: cache manager active
			return h.dedupDevice("img", devSize, s), s
		}},
		{"EC", func(h *harness) (*client.BlockDevice, *core.Store) {
			return h.rawDevice("img", devSize, 0, rados.ErasureKM(2, 1)), nil
		}},
		{"Proposed-EC", func(h *harness) (*client.BlockDevice, *core.Store) {
			s := h.dedupStore(func(cfg *core.Config) {
				cfg.ChunkRedundancy = rados.ErasureKM(2, 1)
			})
			return h.dedupDevice("img", devSize, s), s
		}},
	}

	var rows []Fig12Row
	for i, st := range setups {
		h := sc.newHarness(610+int64(i), 4, 4)
		dev, s := st.build(h)
		h.run(func(p *sim.Proc) {
			if err := workload.BuildSFSDataset(p, dev, sfsCfg); err != nil {
				panic(err)
			}
		})
		// Storage usage (e): measured on the settled dataset — flushed,
		// cooled, and after an EvictCold pass — matching the
		// paper's dataset-footprint accounting. (At this scale the measured
		// phase rewrites nearly every chunk, which the paper's 240GB file
		// set did not experience.)
		if s != nil {
			h.run(func(p *sim.Proc) {
				s.Engine().DrainAndWait(p)
				p.Sleep(12 * time.Second)
				s.Engine().EvictCold(p)
			})
		}
		used := int64(0)
		if s != nil {
			used = h.c.PoolStats(s.MetaPool()).StoredTotal() + h.c.PoolStats(s.ChunkPool()).StoredTotal()
		} else {
			pool, _ := h.c.LookupPool("pool.img")
			used = h.c.PoolStats(pool).StoredTotal()
		}
		if s != nil {
			s.StartEngine() // keep the engine running through the perf phase
		}
		var res workload.SFSResult
		h.run(func(p *sim.Proc) { res = workload.RunSFS(p, dev, sfsCfg) })
		rows = append(rows, Fig12Row{
			Config:      st.name,
			Throughput:  res.TotalThroughput(),
			MeanLatency: res.MeanLatency(),
			ReadIOPS:    res.Read.IOPS(res.Elapsed),
			WriteIOPS:   res.Write.IOPS(res.Elapsed) + res.LogWrite.IOPS(res.Elapsed),
			ReadLat:     res.Read.Lat.Mean(),
			WriteLat:    res.Write.Lat.Mean(),
			StorageUsed: used,
		})
	}
	return rows
}

// Fig12Table renders Fig12.
func Fig12Table(rows []Fig12Row) Table {
	t := Table{
		Title:   "Figure 12: SPEC SFS 2014 database workload (rep=2 / EC 2+1)",
		Columns: []string{"config", "MB/s", "mean lat", "read IOPS", "write IOPS", "read lat", "write lat", "storage"},
		Notes: []string{
			"paper shape (a): Replication ~ Proposed throughput (fixed-rate workload); EC/Proposed-EC lower",
			"paper shape (b,d): Proposed latency > Replication (dedup overhead); EC latencies much worse (RMW + spread reads)",
			"paper shape (e): storage 428GB rep / 320GB EC / 48GB Proposed on the 240GB file set",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Config, f1(r.Throughput), r.MeanLatency.Round(time.Microsecond).String(),
			f1(r.ReadIOPS), f1(r.WriteIOPS),
			r.ReadLat.Round(time.Microsecond).String(), r.WriteLat.Round(time.Microsecond).String(),
			mb(r.StorageUsed),
		})
	}
	return t
}

// Fig12Result runs Fig12 and packages it as a machine-readable Result.
func Fig12Result(sc Scale) Result {
	return Result{Name: "fig12", Tables: []Table{Fig12Table(Fig12(sc))}}
}
