package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dedupstore/internal/chaos"
	"dedupstore/internal/core"
	"dedupstore/internal/metrics"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// The redundancy experiment maps the storage-efficiency vs tail-latency
// frontier of adaptive redundancy against the paper's static Fig 12
// configurations. A skewed-popularity workload (a small hot set takes ~90%
// of accesses; hot content is unique, cold content deduplicates ~2x) runs
// against four placements:
//
//	Replication     raw 2x-replicated pool, no dedup (Fig 12 "Replication")
//	Dedup+Rep       dedup store, replicated chunk pool ("Proposed")
//	Dedup+EC        dedup store, EC 2+1 chunk pool ("Proposed-EC")
//	Adaptive        tiering on: hot → replicated+undeduplicated,
//	                warm → replicated+dedup, cold → EC+dedup
//
// The static configs each sit on one corner of the frontier: Replication
// buys the best tail at 2x storage everywhere; Dedup+EC buys the best
// storage but keeps a hot working set double-stored (cached copy in the
// metadata pool AND a chunk in the EC pool). Adaptive should dominate:
// storage no worse than Dedup+EC (hot objects drop their chunk claims
// entirely) while the hot-set read tail stays within 1.5x of Replication
// (hot reads are served from the replicated metadata pool, never
// redirected to EC).
//
// A second table kills OSDs in the middle of live tier migrations and then
// runs the full reconciliation battery: the two-phase reference protocol
// must leave zero stale references, zero scrub issues, and zero lost data.

// RedundancyRow is one configuration's point on the frontier.
type RedundancyRow struct {
	Config     string
	LogicalMB  float64
	StoredMB   float64
	Efficiency float64 // logical / stored (higher is better)
	HotP99     time.Duration
	AllP99     time.Duration
	HotReads   int64
	Migrations int64 // chunk moves + recaches + rededups (adaptive only)
	TierErrors int64
}

// redundancyWorkload describes the shared skewed-popularity dataset.
type redundancyWorkload struct {
	objects  int
	hot      int   // first `hot` objects take ~90% of accesses
	objSize  int64 // two 4 KiB-aligned chunks at the experiment chunk size
	chunkSz  int64
	duration time.Duration
}

func redundancyWL(sc Scale) redundancyWorkload {
	objects := sc.countMin(64, 16)
	hot := objects / 8
	if hot < 2 {
		hot = 2
	}
	return redundancyWorkload{
		objects:  objects,
		hot:      hot,
		objSize:  64 << 10,
		chunkSz:  32 << 10,
		duration: scaledDuration(sc, 12*time.Second),
	}
}

// objectData returns object i's content: hot objects carry unique bytes
// (an active working set is new data); cold objects draw each chunk from a
// shared pattern pool half the cold population's size, yielding ~2x dedup.
func (wl redundancyWorkload) objectData(i int) []byte {
	data := make([]byte, wl.objSize)
	chunks := int(wl.objSize / wl.chunkSz)
	for c := 0; c < chunks; c++ {
		var seed int64
		if i < wl.hot {
			seed = int64(1_000_000 + i*chunks + c)
		} else {
			pool := (wl.objects - wl.hot) / 2
			if pool < 1 {
				pool = 1
			}
			seed = int64(2_000_000 + ((i-wl.hot)*chunks+c)%pool)
		}
		rand.New(rand.NewSource(seed)).Read(data[int64(c)*wl.chunkSz : int64(c+1)*wl.chunkSz])
	}
	return data
}

// pick returns the object an access lands on: 90% on the hot set.
func (wl redundancyWorkload) pick(rng *rand.Rand) int {
	if rng.Intn(10) < 9 {
		return rng.Intn(wl.hot)
	}
	return wl.hot + rng.Intn(wl.objects-wl.hot)
}

func redundancyOID(i int) string { return fmt.Sprintf("robj.%d", i) }

// redundancyConfig is one point of the frontier sweep. kind: "raw"
// (replicated pool, no dedup), "dedup" (static chunk redundancy red),
// "adaptive" (tiering on).
type redundancyConfig struct {
	name, kind string
	red        rados.Redundancy
	seed       int64
}

// redundancyCase runs one configuration.
func redundancyCase(tb *Testbed, wl redundancyWorkload, c redundancyConfig) RedundancyRow {
	row := RedundancyRow{Config: c.name}
	h := tb.harness(c.seed, 4, 4)

	var s *core.Store
	var rawPool *rados.Pool
	var rawGW *rados.Gateway
	adaptive := c.kind == "adaptive"
	if c.kind == "raw" {
		rawPool, rawGW = h.rawPool("redundancy", c.red)
	} else {
		s = h.dedupStore(func(cfg *core.Config) {
			cfg.ChunkSize = wl.chunkSz
			if adaptive {
				cfg.Tiering = core.DefaultTiering()
				cfg.Tiering.Interval = 500 * time.Millisecond
			} else {
				cfg.ChunkRedundancy = c.red
			}
		})
	}

	write := func(p *sim.Proc, cl *core.Client, i int) error {
		if s == nil {
			return rawGW.WriteFull(p, rawPool, redundancyOID(i), wl.objectData(i))
		}
		return cl.Write(p, redundancyOID(i), 0, wl.objectData(i))
	}
	read := func(p *sim.Proc, cl *core.Client, i int) error {
		if s == nil {
			_, err := rawGW.Read(p, rawPool, redundancyOID(i), 0, wl.objSize)
			return err
		}
		_, err := cl.Read(p, redundancyOID(i), 0, wl.objSize)
		return err
	}

	// Ingest, then let the engine place everything once.
	var ingest *core.Client
	if s != nil {
		ingest = s.Client("client.ingest")
	}
	h.run(func(p *sim.Proc) {
		for i := 0; i < wl.objects; i++ {
			check(write(p, ingest, i))
		}
		if s != nil {
			s.Engine().DrainAndWait(p)
		}
	})

	// Steady state: 4 workers follow the skew (80% reads / 20% rewrites of
	// the same content) with the background machinery live. Latencies are
	// recorded only after the first third, once placements converge.
	hotLat := metrics.NewHistogram()
	allLat := metrics.NewHistogram()
	if s != nil {
		s.StartEngine()
		if adaptive {
			s.StartTieringDaemon()
		}
	}
	const workers = 4
	h.run(func(p *sim.Proc) {
		t0 := p.Now()
		warmup := t0 + sim.Time(wl.duration/3)
		end := t0 + sim.Time(wl.duration)
		var sigs []*sim.Signal
		for w := 0; w < workers; w++ {
			sigs = append(sigs, p.Go(fmt.Sprintf("load%d", w), func(q *sim.Proc) {
				rng := rand.New(rand.NewSource(c.seed + 10 + int64(w)))
				var cl *core.Client
				if s != nil {
					cl = s.Client(fmt.Sprintf("client.%d", w))
					cl.SetTenant("tenant.skew")
				}
				for q.Now() < end {
					i := wl.pick(rng)
					if rng.Intn(5) == 0 {
						check(write(q, cl, i))
					} else {
						t := q.Now()
						check(read(q, cl, i))
						if q.Now() >= warmup {
							lat := (q.Now() - t).Duration()
							allLat.Add(lat)
							if i < wl.hot {
								hotLat.Add(lat)
								row.HotReads++
							}
						}
					}
					q.Sleep(time.Duration(4+rng.Intn(8)) * time.Millisecond)
				}
			}))
		}
		sim.WaitAll(p, sigs...)
	})

	// Settle and measure the footprint while the working set is still hot —
	// the steady-state bill each design pays, not the everything-cold one.
	// Static dedup drains and evicts cold caches (the Fig 12 idiom);
	// adaptive additionally runs policy passes to convergence, which drop
	// the hot set's chunk claims instead of double-storing them.
	var used int64
	h.run(func(p *sim.Proc) {
		if s == nil {
			return
		}
		if adaptive {
			s.StopTieringDaemon()
		}
		s.Engine().DrainAndWait(p)
		s.Engine().EvictCold(p)
		if adaptive {
			for i := 0; i < 3; i++ {
				must(s.TierPass(p))
			}
		}
	})
	if s != nil {
		used = h.footprint(s)
		ts := s.TierStats()
		row.Migrations = ts.PromotedChunks + ts.DemotedChunks + int64(ts.Recaches) + ts.Rededups
		row.TierErrors = ts.Errors
	} else {
		used = h.c.PoolStats(rawPool).StoredTotal()
	}

	logical := int64(wl.objects) * wl.objSize
	row.LogicalMB = float64(logical) / 1e6
	row.StoredMB = float64(used) / 1e6
	if used > 0 {
		row.Efficiency = float64(logical) / float64(used)
	}
	row.HotP99 = hotLat.Percentile(99)
	row.AllP99 = allLat.Percentile(99)
	return row
}

// Redundancy runs the four-configuration frontier sweep.
func Redundancy(sc Scale) []RedundancyRow {
	wl := redundancyWL(sc)
	return Runs(sc, []redundancyConfig{
		{"Replication", "raw", rados.ReplicatedN(2), 920},
		{"Dedup+Rep", "dedup", rados.ReplicatedN(2), 921},
		{"Dedup+EC", "dedup", rados.ErasureKM(2, 1), 922},
		{"Adaptive", "adaptive", rados.Redundancy{}, 923},
	}, func(tb *Testbed, c redundancyConfig) RedundancyRow { return redundancyCase(tb, wl, c) })
}

// RedundancyChaosRow reports the kill-during-migration soak: OSD crashes
// land inside live tier migrations, then the reconcilers run and every
// invariant is re-checked.
type RedundancyChaosRow struct {
	Kills        int
	Migrations   int64
	TierErrors   int64 // migration steps that died mid-protocol (expected > 0)
	VerifyErrors int   // objects whose content diverged (must be 0)
	Reconciled         // stale refs, scrub issues and lost chunks must be 0
}

// RedundancyChaos crashes OSDs while the tiering daemon is actively
// migrating a cooling dataset, lets the leases expire, reconciles, and
// verifies every object byte-for-byte.
func RedundancyChaos(sc Scale) RedundancyChaosRow {
	return Runs(sc, []int64{930}, func(tb *Testbed, seed int64) RedundancyChaosRow {
		return redundancyChaos(tb, redundancyWL(sc), seed)
	})[0]
}

func redundancyChaos(tb *Testbed, wl redundancyWorkload, seed int64) RedundancyChaosRow {
	row := RedundancyChaosRow{Kills: 3}
	h := tb.harness(seed, 4, 4)
	s := h.dedupStore(func(cfg *core.Config) {
		cfg.ChunkSize = wl.chunkSz
		cfg.Tiering = core.DefaultTiering()
		cfg.Tiering.Interval = 300 * time.Millisecond
		cfg.HitSet.Period = 2 * time.Second
		cfg.HitSet.Retain = 4
	})
	mon := h.startMonitor()
	inj := chaos.NewInjector(h.c)

	h.run(func(p *sim.Proc) {
		cl := s.Client("client.chaos")
		for i := 0; i < wl.objects; i++ {
			check(cl.Write(p, redundancyOID(i), 0, wl.objectData(i)))
		}
		s.Engine().DrainAndWait(p)

		// Everything was warm at ingest. Let the dataset cool so the daemon
		// has a full namespace of demotions to perform, keep a small hot set
		// heated so recaches run too, and kill OSDs across that window.
		s.StartEngine()
		s.StartTieringDaemon()
		inj.Apply(chaos.CrashBurst(h.c.OSDs(), row.Kills, time.Second, 7*time.Second, 1300*time.Millisecond))
		rng := rand.New(rand.NewSource(seed + 1))
		end := p.Now() + sim.Time(10*time.Second)
		for p.Now() < end {
			i := rng.Intn(wl.hot)
			if _, err := cl.Read(p, redundancyOID(i), 0, wl.objSize); err != nil {
				row.VerifyErrors++ // reads ride retries below; count hard failures
			}
			p.Sleep(150 * time.Millisecond)
		}
		mon.WaitSettled(p)
		s.StopTieringDaemon()
		s.Engine().DrainAndWait(p)

		ts := s.TierStats()
		row.Migrations = ts.PromotedChunks + ts.DemotedChunks + int64(ts.Recaches) + ts.Rededups
		row.TierErrors = ts.Errors

		// Post-mortem: the battery, then every object byte-for-byte.
		row.Reconciled = reconcile(p, s)
		for i := 0; i < wl.objects; i++ {
			got, err := cl.Read(p, redundancyOID(i), 0, wl.objSize)
			if err != nil || string(got) != string(wl.objectData(i)) {
				row.VerifyErrors++
			}
		}
	})
	return row
}

// RedundancyTable renders the frontier sweep.
func RedundancyTable(rows []RedundancyRow) Table {
	return table("Adaptive redundancy: storage-efficiency vs tail-latency frontier (skewed popularity)",
		[]string{"config", "logical MB", "stored MB", "efficiency", "hot p99", "all p99", "hot reads", "migrations", "tier errors"},
		[]string{
			"frontier target: Adaptive efficiency >= Dedup+EC (hot objects drop chunk claims; no double-storing)",
			"frontier target: Adaptive hot p99 <= 1.5x Replication (hot reads served replicated, never from EC)",
		},
		rows, func(r RedundancyRow) []string {
			mig, tierErrs := "-", "-"
			if r.Config == "Adaptive" {
				mig, tierErrs = fmt.Sprint(r.Migrations), fmt.Sprint(r.TierErrors)
			}
			return []string{
				r.Config, f2(r.LogicalMB), f2(r.StoredMB), f2(r.Efficiency),
				us(r.HotP99), us(r.AllP99), fmt.Sprint(r.HotReads), mig, tierErrs,
			}
		})
}

// RedundancyChaosTable renders the kill-during-migration soak.
func RedundancyChaosTable(r RedundancyChaosRow) Table {
	return table("Adaptive redundancy: OSD kills during live migrations",
		[]string{"kills", "migrations", "mid-protocol deaths", "stale refs", "scrub issues", "lost chunks", "verify errors"},
		[]string{"invariant: stale refs, scrub issues, lost chunks, verify errors all 0 after lease expiry + audit + GC"},
		[]RedundancyChaosRow{r}, func(r RedundancyChaosRow) []string {
			return []string{
				fmt.Sprint(r.Kills), fmt.Sprint(r.Migrations), fmt.Sprint(r.TierErrors),
				fmt.Sprint(r.StaleRefs), fmt.Sprint(r.ScrubIssues), fmt.Sprint(r.LostChunks), fmt.Sprint(r.VerifyErrors),
			}
		})
}

// redundancyTables runs the sweep and the chaos soak as one experiment.
func redundancyTables(sc Scale) []Table {
	return []Table{RedundancyTable(Redundancy(sc)), RedundancyChaosTable(RedundancyChaos(sc))}
}
