package workload

import (
	"fmt"
	"math/rand"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/metrics"
	"dedupstore/internal/sim"
)

// SPEC SFS 2014 database-workload model (§6.4.1). Three properties of the
// real benchmark matter for reproducing the paper's results:
//
//  1. It issues a FIXED number of requests per second per load unit,
//     open-loop ("the database workload in SPEC SFS 2014 issues fixed
//     number of requests per second"): a configuration that cannot sustain
//     the rate builds queues and its latency explodes — exactly the EC
//     behaviour in Fig. 12 (latencies of seconds).
//  2. Its dataset redundancy grows with the load level (Fig. 3: 36%/81%/93%
//     dedupable at LD1/LD3/LD10): load units are consolidated database
//     instances sharing page extents.
//  3. Redundancy lives in DB extents (32K), so it survives the paper's 32K
//     chunking.
//
// The model drives DB-page traffic (random 8K reads/writes over TABLE
// regions plus sequential 64K LOG writes) at a fixed request rate per load
// unit over a dataset built from shared 32K extents.
type SFSConfig struct {
	// Loads is the benchmark's load metric (LD1/LD3/LD10).
	Loads int
	// BytesPerLoad is each load unit's dataset size.
	BytesPerLoad int64
	// OpsPerSecPerLoad is the fixed request rate each load unit issues.
	OpsPerSecPerLoad float64
	// WorkersPerLoad is each load unit's service concurrency; requests
	// beyond it queue (open-loop latency includes queueing).
	WorkersPerLoad int
	// Duration bounds the measured phase.
	Duration time.Duration
	// PageSize is the DB page size (8K).
	PageSize int64
	Seed     int64
}

func (c *SFSConfig) defaults() {
	if c.Loads <= 0 {
		c.Loads = 1
	}
	if c.BytesPerLoad <= 0 {
		c.BytesPerLoad = 2 << 20
	}
	if c.OpsPerSecPerLoad <= 0 {
		c.OpsPerSecPerLoad = 200
	}
	if c.WorkersPerLoad <= 0 {
		c.WorkersPerLoad = 2
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.PageSize <= 0 {
		c.PageSize = 8 << 10
	}
}

// extentSize is the DB extent granularity redundancy lives at.
const extentSize = 32 << 10

// Shared-pool calibration (see package docs): ~1% of extents are unique to
// a load unit; the shared pool holds ~63% of a unit's extent count,
// matching Fig. 3's LD1/LD3/LD10 global dedup ratios.
const (
	sfsUniqueFrac = 0.01
	sfsPoolFrac   = 0.63
)

// SFSGen produces extent/page contents for one cluster-wide SFS dataset.
type SFSGen struct {
	cfg  SFSConfig
	pool *BlockPool // 32K shared extents
	n    int64      // pool size in extents
	rng  *rand.Rand
	uniq int64
}

// NewSFSGen creates the generator.
func NewSFSGen(cfg SFSConfig) *SFSGen {
	cfg.defaults()
	extentsPerLoad := cfg.BytesPerLoad / extentSize
	n := int64(float64(extentsPerLoad) * sfsPoolFrac)
	if n < 1 {
		n = 1
	}
	return &SFSGen{
		cfg:  cfg,
		pool: NewBlockPool(extentSize, cfg.Seed+13, false),
		n:    n,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Extent returns the next 32K extent content for dataset builds.
func (g *SFSGen) Extent() []byte {
	buf := make([]byte, extentSize)
	if g.rng.Float64() < sfsUniqueFrac {
		g.uniq++
		fillRandom(buf, g.cfg.Seed*104729+g.uniq)
	} else {
		g.pool.Block(g.rng.Int63n(g.n), buf)
	}
	return buf
}

// Page returns an 8K page for random overwrites: one quarter of a pool
// extent, so most overwrites keep the dataset dedupable.
func (g *SFSGen) Page() []byte {
	if g.rng.Float64() < sfsUniqueFrac {
		g.uniq++
		buf := make([]byte, g.cfg.PageSize)
		fillRandom(buf, g.cfg.Seed*104729+g.uniq)
		return buf
	}
	ext := make([]byte, extentSize)
	g.pool.Block(g.rng.Int63n(g.n), ext)
	q := g.rng.Int63n(extentSize / g.cfg.PageSize)
	return ext[q*g.cfg.PageSize : (q+1)*g.cfg.PageSize]
}

// SFSOpMix is the database workload's operation mix: predominantly random
// page reads, a significant random-write stream, and sequential log writes.
var SFSOpMix = struct {
	RandReadPct, RandWritePct, LogWritePct float64
}{50, 38, 12}

// SFSResult aggregates one SFS run with per-op-class recorders.
type SFSResult struct {
	Config    SFSConfig
	Read      *metrics.Recorder
	Write     *metrics.Recorder
	LogWrite  *metrics.Recorder
	Elapsed   sim.Time
	Errors    int
	OpsWanted int64
	OpsDone   int64
}

// TotalThroughput returns MB/s across all op classes.
func (r SFSResult) TotalThroughput() float64 {
	return r.Read.Throughput(r.Elapsed) + r.Write.Throughput(r.Elapsed) + r.LogWrite.Throughput(r.Elapsed)
}

// MeanLatency returns the op-weighted mean latency.
func (r SFSResult) MeanLatency() time.Duration {
	tot := r.Read.Lat.Count() + r.Write.Lat.Count() + r.LogWrite.Lat.Count()
	if tot == 0 {
		return 0
	}
	sum := time.Duration(r.Read.Lat.Count())*r.Read.Lat.Mean() +
		time.Duration(r.Write.Lat.Count())*r.Write.Lat.Mean() +
		time.Duration(r.LogWrite.Lat.Count())*r.LogWrite.Lat.Mean()
	return sum / time.Duration(tot)
}

// BuildSFSDataset populates each load unit's device region with 32K extents
// (run once before the measured phase).
func BuildSFSDataset(p *sim.Proc, dev *client.BlockDevice, cfg SFSConfig) error {
	cfg.defaults()
	gen := NewSFSGen(cfg)
	var sigs []*sim.Signal
	errs := 0
	for u := 0; u < cfg.Loads; u++ {
		base := int64(u) * cfg.BytesPerLoad
		sigs = append(sigs, p.Go(fmt.Sprintf("sfs.build.%d", u), func(q *sim.Proc) {
			for off := int64(0); off+extentSize <= cfg.BytesPerLoad; off += extentSize {
				if err := dev.WriteAt(q, base+off, gen.Extent()); err != nil {
					errs++
					return
				}
			}
		}))
	}
	sim.WaitAll(p, sigs...)
	if errs > 0 {
		return fmt.Errorf("workload: sfs build failed on %d units", errs)
	}
	return nil
}

// sfsOp is one scheduled request.
type sfsOp struct {
	at   sim.Time // scheduled issue time (open-loop)
	kind int      // 0 read, 1 write, 2 log write
	off  int64
}

// RunSFS drives the measured phase open-loop: each load unit schedules
// requests at its fixed rate; WorkersPerLoad workers serve them. Latency is
// measured from the scheduled time, so an overloaded configuration shows
// queue growth as rising latency (the paper's EC curves).
func RunSFS(p *sim.Proc, dev *client.BlockDevice, cfg SFSConfig) SFSResult {
	cfg.defaults()
	gen := NewSFSGen(cfg)
	res := SFSResult{
		Config: cfg,
		Read:   metrics.NewRecorder(), Write: metrics.NewRecorder(), LogWrite: metrics.NewRecorder(),
	}
	start := p.Now()
	interval := time.Duration(float64(time.Second) / cfg.OpsPerSecPerLoad)
	var sigs []*sim.Signal
	for u := 0; u < cfg.Loads; u++ {
		u := u
		base := int64(u) * cfg.BytesPerLoad
		rng := rand.New(rand.NewSource(cfg.Seed + int64(u)*31))
		pages := cfg.BytesPerLoad / cfg.PageSize
		logCursor := int64(0)
		queue := sim.NewQueue[sfsOp]()

		// Scheduler: enqueue requests at the fixed rate.
		sigs = append(sigs, p.Go(fmt.Sprintf("sfs.sched%d", u), func(q *sim.Proc) {
			deadline := start + sim.Time(cfg.Duration)
			for q.Now() < deadline {
				res.OpsWanted++
				op := sfsOp{at: q.Now()}
				dice := rng.Float64() * 100
				switch {
				case dice < SFSOpMix.RandReadPct:
					op.kind = 0
					op.off = base + rng.Int63n(pages)*cfg.PageSize
				case dice < SFSOpMix.RandReadPct+SFSOpMix.RandWritePct:
					op.kind = 1
					op.off = base + rng.Int63n(pages)*cfg.PageSize
				default:
					op.kind = 2
					logSize := int64(64 << 10)
					logRegion := cfg.BytesPerLoad / 8 / logSize * logSize
					if logRegion < logSize {
						logRegion = logSize
					}
					op.off = base + (logCursor%logRegion/logSize)*logSize
					logCursor += logSize
				}
				queue.Push(q, op)
				q.Sleep(interval)
			}
			queue.Close(q)
		}))

		// Workers: serve queued requests.
		for w := 0; w < cfg.WorkersPerLoad; w++ {
			sigs = append(sigs, p.Go(fmt.Sprintf("sfs.load%d.w%d", u, w), func(q *sim.Proc) {
				for {
					op, ok := queue.Pop(q)
					if !ok {
						return
					}
					switch op.kind {
					case 0:
						if data, err := dev.ReadAt(q, op.off, cfg.PageSize); err != nil {
							res.Errors++
						} else {
							res.Read.Record(q.Now(), (q.Now() - op.at).Duration(), len(data))
						}
					case 1:
						if err := dev.WriteAt(q, op.off, gen.Page()); err != nil {
							res.Errors++
						} else {
							res.Write.Record(q.Now(), (q.Now() - op.at).Duration(), int(cfg.PageSize))
						}
					default:
						logSize := 64 << 10
						buf := make([]byte, logSize)
						fillRandom(buf, cfg.Seed+op.at.Duration().Nanoseconds()+int64(u))
						if err := dev.WriteAt(q, op.off, buf); err != nil {
							res.Errors++
						} else {
							res.LogWrite.Record(q.Now(), (q.Now() - op.at).Duration(), logSize)
						}
					}
					res.OpsDone++
				}
			}))
		}
	}
	sim.WaitAll(p, sigs...)
	res.Elapsed = p.Now() - start
	return res
}
