package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dedupstore/internal/chaos"
	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/fpindex"
	"dedupstore/internal/gateway"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// workloadDef is one benchmark workload: why it exists and how to set it up.
// setup builds the world and every input, and leaves the timed phase in
// r.timed; nothing is generated once the clock runs.
type workloadDef struct {
	name  string
	why   string
	setup func(r *run)
	shape shape // what its ops look like to the layer probes
}

// shape is what a workload's ops look like to the layers below it.
type shape struct {
	opBytes     int // one foreground op
	objectBytes int // one stripe object, so chunk maps hold objectBytes/chunkSize entries
}

var workloads = []workloadDef{
	{"ingest-drain", "closed-loop backup ingest then drain then read-back: the write path, store copies and the flush pipeline do nearly all the work", setupIngestDrain, shape{ingestBlock, ingestObject}},
	{"oltp-mixed", "open-loop 8 KiB 70/30 mix from 3 tenants through the gateway: many small ops, so sim dispatch, qos queues, admission and read redirect dominate", setupOLTPMixed, shape{oltpPage, oltpObject}},
	{"cold-ec-tier", "tiering to an EC 2+1 cold pool with the fingerprint index on: the only workload where ec, ecio, fpindex, tiering and multi-band hitset carry the load", setupColdECTier, shape{tierObject, tierObject}},
	{"maintain-recover", "light foreground while an OSD crashes, recovers, then GC, scrub, audit, GC run: namespace walkers, recovery and background qos classes do the work", setupMaintainRecover, shape{maintPage, maintObject}},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Fixed parameters. Op counts are per 10 s of -seconds and were sized on the
// 2-core reference box so the timed phase takes about -seconds of host wall;
// they are fixed counts, not deadlines, so that every simulated statistic
// repeats exactly at one seed.
const (
	chunkSize = 32 << 10

	ingestVolumes    = 4
	ingestVolMiB     = 64
	ingestGens       = 7    // per 10 s, at least 2: generation 1 plus rewrites
	ingestFreshPool  = 1024 // distinct blocks the rewrites draw new content from, in rotation
	ingestBlock      = 64 << 10
	ingestObject     = 1 << 20
	ingestIssuers    = 4 // per volume: fio 4 threads x 4 iodepth overall
	ingestGen1DupPct = 50
	ingestGen2Keep   = 0.70

	oltpDevMiB    = 32 // per tenant
	oltpObject    = 64 << 10
	oltpPage      = 8 << 10
	oltpOps       = 400000 // per 10 s
	oltpRate      = 15000  // arrivals per simulated second over all tenants: ~60% of the ~26k/s saturation measured while authoring
	oltpReadShare = 0.70
	oltpZipfS     = 1.3
	oltpZipfV     = 8
	oltpWarmFor   = 9 * time.Second // set-up runs the mix this long: one period more than the hit sets retain

	tierObject    = 64 << 10
	tierObjects   = 1536
	tierHot       = 64  // objects hit all the time
	tierWarm      = 320 // objects hit now and then; the rest are cold
	tierIssuers   = 8
	tierOps       = 95000 // per 10 s
	tierThink     = 4 * time.Millisecond
	tierSlowBy    = 4.0
	tierCoolFor   = 10 * time.Second // longer than the hit sets remember
	tierWarmupFor = 3 * time.Second
	tierWindows   = 3

	maintDevMiB  = 96
	maintObject  = 64 << 10
	maintPage    = 8 << 10
	maintIssuers = 4
	maintThink   = 2 * time.Millisecond
	maintGarbage = 0.30
	maintRounds  = 21 // GC, scrub, audit, GC rounds per 10 s
	maintCrashAt = 500 * time.Millisecond
)

// scaled turns a per-10-seconds count into this run's count.
func (r *run) scaled(base int) int {
	n := int(math.Round(float64(base) * r.p.seconds / 10))
	if n < 1 {
		n = 1
	}
	return n
}

// sized returns a device or warm-up dimension, an eighth of it in a
// miniature run.
func (r *run) sized(n int) int {
	if r.p.mini {
		return n / 8
	}
	return n
}

// startEngine starts the background flush engine; from here on reads can
// race its evictions.
func (r *run) startEngine() {
	r.w.s.StartEngine()
	r.moversLive = true
}

// closedLoop runs issuers concurrent issuers, each calling op until op
// reports false, and accounts the elapsed simulated time as foreground time.
func (r *run) closedLoop(p *sim.Proc, issuers int, op func(q *sim.Proc, issuer int) bool) {
	start := p.Now()
	var sigs []*sim.Signal
	for i := 0; i < issuers; i++ {
		sigs = append(sigs, p.Go("issuer", func(q *sim.Proc) {
			for op(q, i) {
			}
		}))
	}
	sim.WaitAll(p, sigs...)
	r.log.fgTime += p.Now() - start
}

func (r *run) doWrite(q *sim.Proc, sh *shadow, page int, id int32, due sim.Time) {
	data := sh.tab.blocks[id]
	sh.begin(page, id)
	start := q.Now()
	err := sh.dev.WriteAt(q, int64(page)*int64(len(data)), data)
	r.tr.end(q, opWrite, start)
	sh.end(page)
	r.log.add(opWrite, q.Now()-due, len(data), err)
}

// racingCap is how many reads a run may have to retry (see doRead) before it
// is incorrect: the known defect of the read path ("Known defects" in
// README.md) produced at most 1 per run, about 1 in 70 000 reads on
// cold-ec-tier and fewer elsewhere, over seeds 1-20 when the benchmark was
// defined. More than 1 in 25 000 reads (and more than 2) means the race got
// worse.
func racingCap(reads int) int { return max(2, reads/25000) }

// doRead reads one page and, unless a write to the page overlapped the read,
// checks the bytes against the model. With the background movers quiet a
// wrong page is a failed op and fails the run. While they are live the known
// defect can hand a read the bytes of an object caught mid-move, so the
// benchmark's client does what a client that checksums its blocks does: it
// reads the page once more, inside the same op and the same latency sample.
// Only a second wrong page is a failed op; the retries are counted in
// r.racing and fail the run beyond racingCap.
func (r *run) doRead(q *sim.Proc, sh *shadow, page int, due sim.Time) {
	bs := int64(sh.tab.size)
	quiet, v0 := sh.inflight[page] == 0, sh.version[page]
	start := q.Now()
	got, err := sh.dev.ReadAt(q, int64(page)*bs, bs)
	wrong := func() bool {
		return err == nil && quiet && sh.version[page] == v0 && !sh.matches(page, got)
	}
	if wrong() && r.moversLive {
		r.racing++
		got, err = sh.dev.ReadAt(q, int64(page)*bs, bs)
	}
	if wrong() {
		r.mismatches++
	}
	r.tr.end(q, opRead, start)
	r.log.add(opRead, q.Now()-due, len(got), err)
}

// --- ingest-drain -------------------------------------------------------------

func setupIngestDrain(r *run) {
	r.w = newWorld(r.p.seed, r.p.cost, nil)
	perVol := r.sized(ingestVolMiB) << 20 / ingestBlock
	n := ingestVolumes * perVol
	rng := rand.New(rand.NewSource(r.p.seed))
	gen, firstFresh := dedupPlan(rng, n, ingestGen1DupPct, 0)
	fresh, freshPool := int32(0), r.sized(ingestFreshPool)
	gens := [][]int32{gen}
	for len(gens) < max(2, r.scaled(ingestGens)) {
		prev := gens[len(gens)-1]
		gen = make([]int32, n)
		for i := range gen {
			if rng.Float64() < ingestGen2Keep {
				gen[i] = prev[i]
			} else {
				gen[i] = firstFresh + fresh%int32(freshPool)
				fresh++
			}
		}
		gens = append(gens, gen)
	}
	tab := newBlockTable(r.p.seed, int(firstFresh)+freshPool, ingestBlock)
	for v := 0; v < ingestVolumes; v++ {
		dev := r.w.device(fmt.Sprintf("vol%d", v), "", int64(perVol)*ingestBlock, ingestObject, r.wrapBackend(nil))
		r.shadows = append(r.shadows, newShadow(dev, tab))
	}
	// the timed phase stores 2 replicas of everything plus the chunk pool
	growHeap(6 * n * ingestBlock)
	// each volume's issuers share one sequential cursor
	sweep := func(p *sim.Proc, op func(q *sim.Proc, sh *shadow, page, global int)) {
		cursors := make([]int, ingestVolumes)
		r.closedLoop(p, ingestVolumes*ingestIssuers, func(q *sim.Proc, issuer int) bool {
			v := issuer % ingestVolumes
			page := cursors[v]
			if page >= perVol {
				return false
			}
			cursors[v]++
			op(q, r.shadows[v], page, v*perVol+page)
			return true
		})
	}
	r.timed = func(p *sim.Proc) {
		// every backup generation is ingested with the engine live and then
		// drained, as a nightly backup window is
		for _, gen := range gens {
			r.startEngine()
			sweep(p, func(q *sim.Proc, sh *shadow, page, global int) {
				r.doWrite(q, sh, page, gen[global], q.Now())
			})
			r.w.s.Engine().DrainAndWait(p)
			r.moversLive = false
		}
		// restore: sequential read-back, every byte checked
		sweep(p, func(q *sim.Proc, sh *shadow, page, _ int) {
			r.doRead(q, sh, page, q.Now())
		})
	}
}

// --- oltp-mixed ---------------------------------------------------------------

// oltpSLOs are the three tenant contracts. Gold is the preset. Silver and
// bronze keep the presets' classes, weights and inflight caps but carry
// rates sized for 8 KiB ops at oltpRate: the presets' 128 and 32 MiB/s are
// sized for streaming and would never throttle this workload, leaving the
// gateway layer idle.
var oltpSLOs = []gateway.SLO{
	gateway.Gold,
	{Class: "silver", Weight: gateway.Silver.Weight, RateBps: 48 << 20, Burst: 128 << 10, MaxInflight: gateway.Silver.MaxInflight},
	{Class: "bronze", Weight: gateway.Bronze.Weight, RateBps: 27 << 20, Burst: 32 << 10, MaxInflight: gateway.Bronze.MaxInflight},
}

// oltpShares is each tenant's share of the arrivals, cumulative.
var oltpShares = []float64{0.5, 0.8, 1}

type oltpOp struct {
	due    sim.Time // offset from the start of the timed phase
	tenant uint8
	write  bool
	page   int32
	id     int32
}

func setupOLTPMixed(r *run) {
	w := newWorld(r.p.seed, r.p.cost, func(cfg *core.Config) {
		// At thousands of ops a second the default "seen in 2 of the last 8
		// one-second hit sets" calls every object hot and nothing is ever
		// flushed; requiring all 8 leaves a hot head and a cold tail.
		cfg.HitSet.HitCount = cfg.HitSet.Retain
	})
	r.w = w
	rng := rand.New(rand.NewSource(r.p.seed))
	pages := r.sized(oltpDevMiB) << 20 / oltpPage
	const perChunk = chunkSize / oltpPage
	nT := len(oltpSLOs)

	// Prefill content is planned per 32 KiB chunk so half the chunks
	// deduplicate; timed writes draw single pages from the whole table.
	plan, nextExtent := dedupPlan(rng, nT*pages/perChunk, 50, 0)
	fresh := int32(pages / 2)
	tab := newBlockTable(r.p.seed, int(nextExtent)*perChunk+int(fresh), oltpPage)

	coord := gateway.New(w.c.Metrics(), 0)
	fillers := make([]*client.BlockDevice, nT)
	for t, slo := range oltpSLOs {
		name := fmt.Sprintf("tenant%d", t)
		tn, err := coord.Register(name, slo)
		if err != nil {
			panic(err)
		}
		r.tenants = append(r.tenants, tn)
		dev := w.device(name, name, int64(pages)*oltpPage, oltpObject, r.wrapBackend(tn))
		r.shadows = append(r.shadows, newShadow(dev, tab))
		// set-up writes bypass admission so buckets start the timed phase full
		fillers[t] = w.device(name, name, int64(pages)*oltpPage, oltpObject, nil)
	}
	w.run(func(p *sim.Proc) {
		for t, sh := range r.shadows {
			ids := make([]int32, pages)
			for pg := range ids {
				ids[pg] = plan[(t*pages+pg)/perChunk]*perChunk + int32(pg%perChunk)
			}
			sh.fill(p, fillers[t], ids, 8, 8)
		}
		w.s.Engine().DrainAndWait(p)
	})
	r.startEngine()

	// One arrival process: its first oltpWarmFor are the warm-up, the rest the
	// timed phase.
	zipf := rand.NewZipf(rng, oltpZipfS, oltpZipfV, uint64(pages-1))
	draw := func(n int) []oltpOp {
		ops := make([]oltpOp, n)
		var due float64
		for i := range ops {
			due += rng.ExpFloat64() / oltpRate
			ops[i] = oltpOp{
				due:    sim.Time(due * float64(time.Second)),
				tenant: uint8(sort.SearchFloat64s(oltpShares, rng.Float64())),
				write:  rng.Float64() >= oltpReadShare,
				page:   int32(zipf.Uint64()),
				id:     rng.Int31n(int32(len(tab.blocks))),
			}
		}
		return ops
	}
	openLoop := func(p *sim.Proc, ops []oltpOp, issue func(q *sim.Proc, op *oltpOp, due sim.Time)) {
		t0 := p.Now()
		sigs := make([]*sim.Signal, len(ops))
		for i := range ops {
			op := &ops[i]
			p.SleepUntil(t0 + op.due)
			due := p.Now()
			sigs[i] = p.Go("arrival", func(q *sim.Proc) {
				if late := q.Now() - due; late != 0 {
					r.fail("open-loop generator ran %v late", late)
				}
				issue(q, op, due)
			})
		}
		sim.WaitAll(p, sigs...)
	}

	// Warm-up, with the engine live: until the hit sets have a full history
	// they call nothing hot, the engine flushes the Zipf head out from under
	// its readers, and the timed phase would open with a transient no steady
	// system shows. It goes around admission like the prefill, and is not
	// logged.
	warm := draw(r.sized(int(oltpRate * oltpWarmFor.Seconds())))
	w.run(func(p *sim.Proc) {
		openLoop(p, warm, func(q *sim.Proc, op *oltpOp, _ sim.Time) {
			sh, dev, page := r.shadows[op.tenant], fillers[op.tenant], int(op.page)
			var err error
			if op.write {
				sh.begin(page, op.id)
				err = dev.WriteAt(q, int64(page)*oltpPage, tab.blocks[op.id])
				sh.end(page)
			} else {
				_, err = dev.ReadAt(q, int64(page)*oltpPage, oltpPage)
			}
			if err != nil {
				panic(fmt.Sprintf("bench: warm-up: %v", err))
			}
		})
	})

	ops := draw(r.scaled(oltpOps))
	r.timed = func(p *sim.Proc) {
		t0 := p.Now()
		openLoop(p, ops, func(q *sim.Proc, op *oltpOp, due sim.Time) {
			sh := r.shadows[op.tenant]
			if op.write {
				r.doWrite(q, sh, int(op.page), op.id, due)
			} else {
				r.doRead(q, sh, int(op.page), due)
			}
		})
		r.log.fgTime += p.Now() - t0
	}
}

// --- cold-ec-tier -------------------------------------------------------------

func setupColdECTier(r *run) {
	w := newWorld(r.p.seed, r.p.cost, func(cfg *core.Config) {
		cfg.Tiering = core.DefaultTiering()
		cfg.Tiering.Interval = 500 * time.Millisecond
		// A block cache far smaller than the table set, and a small memtable
		// so the chunk population spreads over several SSTable levels.
		cfg.FPIndex = fpindex.DefaultConfig()
		cfg.FPIndex.MemtableBytes = 8 << 10
		cfg.FPIndex.CacheBytes = 16 << 10
	})
	r.w = w
	rng := rand.New(rand.NewSource(r.p.seed))

	// Hot objects carry unique bytes (an active working set is new data);
	// everything else draws from a pool half its size (~2x dedup). Overwrites
	// of warm objects draw from the same pool plus as many fresh blocks.
	objects, hot, warmN := r.sized(tierObjects), r.sized(tierHot), r.sized(tierWarm)
	ids := make([]int32, objects)
	for i := 0; i < hot; i++ {
		ids[i] = int32(i)
	}
	rest, poolEnd := dedupPlan(rng, objects-hot, 50, int32(hot))
	copy(ids[hot:], rest)
	tab := newBlockTable(r.p.seed, int(poolEnd)+warmN, tierObject)

	dev := w.device("tier", "", int64(objects)*tierObject, tierObject, r.wrapBackend(nil))
	sh := newShadow(dev, tab)
	r.shadows = append(r.shadows, sh)

	pickRead := func(g *rand.Rand) int {
		switch x := g.Float64(); {
		case x < 0.70:
			return g.Intn(hot)
		case x < 0.95:
			return hot + g.Intn(warmN)
		default:
			return hot + warmN + g.Intn(objects-hot-warmN)
		}
	}

	// Set-up: ingest, let everything go cold before the drain so the flush
	// lands it in the cold pool directly, then drive the skew with the tier
	// daemon live.
	w.run(func(p *sim.Proc) {
		sh.fill(p, dev, ids, 8, 1)
		p.Sleep(tierCoolFor)
		w.s.Engine().DrainAndWait(p)
	})
	r.startEngine()
	w.s.StartTieringDaemon()
	warm := rand.New(rand.NewSource(r.p.seed + 1))
	w.run(func(p *sim.Proc) {
		// a fixed number of windows, so that set-up takes the same simulated
		// time at every seed
		var last, census core.TierCensus
		for window := 0; window < tierWindows; window++ {
			end := p.Now() + sim.Time(tierWarmupFor)
			for p.Now() < end {
				if _, err := dev.ReadAt(p, int64(pickRead(warm))*tierObject, tierObject); err != nil {
					panic(err)
				}
				p.Sleep(tierThink / 2)
			}
			last = census
			census, _ = w.s.TierCensus()
		}
		// hot and warm trade members all the time; settled means the cold band,
		// whose moves cost EC migrations, holds still
		if d := int(census.Objects[0] - last.Objects[0]); census.Objects[0] == 0 || d > objects/20 || -d > objects/20 {
			r.fail("tier census still moving after %d warm-up windows: %+v then %+v", tierWindows, last, census)
		}
	})

	// Timed-phase schedule, one list per issuer. Warm objects are owned by
	// the issuer that overwrites them, so the model stays exact; cold first
	// reads walk the cold set once, in order.
	type tierOp struct {
		write bool
		obj   int32
		id    int32
	}
	total := r.scaled(tierOps)
	sched := make([][]tierOp, tierIssuers)
	coldNext := hot + warmN
	for i := 0; i < total; i++ {
		issuer := i % tierIssuers
		var op tierOp
		switch x := rng.Float64(); {
		case x < 0.60:
			op.obj = int32(pickRead(rng))
		case x < 0.85:
			op.write = true
			op.obj = int32(hot + issuer + tierIssuers*rng.Intn(warmN/tierIssuers))
			op.id = int32(hot) + rng.Int31n(int32(len(tab.blocks)-hot))
		default:
			op.obj = int32(coldNext)
			if coldNext++; coldNext == objects {
				coldNext = hot + warmN
			}
		}
		sched[issuer] = append(sched[issuer], op)
	}

	// One OSD of the cold pool slow and one marked down (but in): SetOSDSlow
	// alone never reaches the reconstruct path, which ecGather takes only
	// when a data-shard holder is down.
	osds := w.c.OSDs()
	slow, down := osds[rng.Intn(len(osds))], osds[rng.Intn(len(osds))]
	for down == slow {
		down = osds[rng.Intn(len(osds))]
	}

	r.timed = func(p *sim.Proc) {
		if err := w.c.SetOSDSlow(slow, tierSlowBy); err != nil {
			panic(err)
		}
		w.c.Map().SetUp(down, false)
		pos := make([]int, tierIssuers)
		r.closedLoop(p, tierIssuers, func(q *sim.Proc, issuer int) bool {
			if pos[issuer] == len(sched[issuer]) {
				return false
			}
			op := sched[issuer][pos[issuer]]
			pos[issuer]++
			if op.write {
				r.doWrite(q, sh, int(op.obj), op.id, q.Now())
			} else {
				r.doRead(q, sh, int(op.obj), q.Now())
			}
			q.Sleep(tierThink)
			return true
		})
		w.s.StopTieringDaemon()
	}
	// Bring the OSD back the way the monitor's rejoin does: mark it up, then
	// backfill what it missed. Without the backfill it holds no copy of the
	// chunks written meanwhile, and the first reference update sent to it
	// creates an empty object that later reads as zeros. The flush engine is
	// drained first so that nothing mutates chunks while the backfill runs.
	r.restore = func(p *sim.Proc) {
		w.s.Engine().DrainAndWait(p)
		_ = w.c.SetOSDSlow(slow, 1)
		w.c.Map().SetUp(down, true)
		w.c.Recover(p)
	}
}

// --- maintain-recover ---------------------------------------------------------

func setupMaintainRecover(r *run) {
	w := newWorld(r.p.seed, r.p.cost, func(cfg *core.Config) {
		// the reference mode in which overwrites and deletes leave stale
		// references behind for the collector (§4.6)
		cfg.FalsePositiveRefs = true
		cfg.HitSet.HitCount = cfg.HitSet.Retain // as in oltp-mixed
	})
	r.w = w
	rng := rand.New(rand.NewSource(r.p.seed))
	pages := r.sized(maintDevMiB) << 20 / maintPage
	const perChunk = chunkSize / maintPage
	const perObject = maintObject / maintPage

	plan, nextExtent := dedupPlan(rng, pages/perChunk, 50, 0)
	fresh := int32(pages / 2)
	tab := newBlockTable(r.p.seed, int(nextExtent)*perChunk+int(fresh), maintPage)
	retry := func(be client.ObjectBackend) client.ObjectBackend {
		return client.NewRetryBackend(be, client.DefaultRetryPolicy(), w.c.Metrics())
	}
	dev := w.device("maint", "", int64(pages)*maintPage, maintObject, func(be client.ObjectBackend) client.ObjectBackend {
		return retry(r.wrapBackend(nil)(be))
	})
	sh := newShadow(dev, tab)
	r.shadows = append(r.shadows, sh)

	// Set-up: prefill and drain, then turn maintGarbage of it into garbage:
	// discard some objects outright and overwrite pages of others, and drain
	// again so the old chunks are dereferenced.
	w.run(func(p *sim.Proc) {
		ids := make([]int32, pages)
		for pg := range ids {
			ids[pg] = plan[pg/perChunk]*perChunk + int32(pg%perChunk)
		}
		sh.fill(p, dev, ids, 8, 8)
		w.s.Engine().DrainAndWait(p)
		for obj := 0; obj < pages/perObject; obj++ {
			switch x := rng.Float64(); {
			case x < maintGarbage/2:
				if err := dev.Discard(p, int64(obj)*maintObject, maintObject); err != nil {
					panic(err)
				}
				for pg := obj * perObject; pg < (obj+1)*perObject; pg++ {
					sh.clear(pg)
				}
			case x < maintGarbage:
				for pg := obj * perObject; pg < (obj+1)*perObject; pg += perChunk {
					id := nextExtent*perChunk + rng.Int31n(fresh)
					if err := dev.WriteAt(p, int64(pg)*maintPage, tab.blocks[id]); err != nil {
						panic(err)
					}
					sh.set(pg, id)
				}
			}
		}
		w.s.Engine().DrainAndWait(p)
	})
	r.startEngine()
	r.mon = w.c.StartMonitor(rados.MonitorConfig{
		Interval: 250 * time.Millisecond, Grace: time.Second, OutAfter: 2500 * time.Millisecond, AutoRecover: true,
	})
	victim := w.c.OSDs()[rng.Intn(len(w.c.OSDs()))]
	inj := chaos.NewInjector(w.c)

	// Each issuer owns the pages congruent to it, so the model stays exact.
	// Ops are drawn before the clock starts; issuers wrap around their lists
	// because the maintenance sequence, not the list, decides when they stop.
	type fgOp struct {
		write bool
		page  int32
		id    int32
	}
	lists := make([][]fgOp, maintIssuers)
	for i := range lists {
		lists[i] = make([]fgOp, 4096)
		for j := range lists[i] {
			lists[i][j] = fgOp{
				write: rng.Intn(2) == 0,
				page:  int32(i + maintIssuers*rng.Intn(pages/maintIssuers)),
				id:    rng.Int31n(int32(len(tab.blocks))),
			}
		}
	}

	// Between the monitor marking the victim down and the end of the recovery
	// that follows its mark-out, foreground ops are all reads: a write that
	// lands while the object's placement group is remapped and recovered can
	// be overwritten by the recovery copy and is then lost until the page is
	// next written (README "Known defects"). The failover stall of writes
	// caught by the crash itself, before it is detected, stays in the run.
	recovering := func() bool {
		osd, _ := w.c.Map().Lookup(victim)
		return !osd.Up && !r.mon.Settled()
	}

	r.timed = func(p *sim.Proc) {
		done := false
		pos := make([]int, maintIssuers)
		fg := p.Go("foreground", func(q *sim.Proc) {
			r.closedLoop(q, maintIssuers, func(q *sim.Proc, issuer int) bool {
				if done {
					return false
				}
				op := lists[issuer][pos[issuer]%len(lists[issuer])]
				pos[issuer]++
				if op.write && !recovering() {
					r.doWrite(q, sh, int(op.page), op.id, q.Now())
				} else {
					r.doRead(q, sh, int(op.page), q.Now())
				}
				q.Sleep(maintThink)
				return true
			})
		})
		t0 := p.Now()
		// The victim stays down, as in the issue's schedule: a rejoin is a
		// second remap and recovery for writes to race.
		inj.Apply(chaos.Schedule{{At: maintCrashAt, Kind: chaos.KindCrashOSD, OSD: victim}})
		r.pass("recovery", p, func() error {
			p.Sleep(time.Second) // the fault must land before "settled" means anything
			r.mon.WaitSettled(p)
			return nil
		})
		for i := 0; i < r.scaled(maintRounds); i++ {
			r.pass("gc", p, func() error { st, err := w.s.GC(p); r.maint.addGC(st); return err })
			r.pass("scrub", p, func() error { rep, err := w.s.Scrub(p); r.maint.addScrub(rep); return err })
			r.pass("audit", p, func() error { st, err := w.s.Audit(p); r.maint.addAudit(st); return err })
			r.pass("gc", p, func() error { st, err := w.s.GC(p); r.maint.addGC(st); return err })
		}
		done = true
		fg.Wait(p)
		r.mon.Stop()
		for _, ev := range r.mon.Events() {
			if ev.Kind == "down" {
				r.detectMS = float64((ev.At-t0).Duration()-maintCrashAt) / 1e6
				break
			}
		}
	}
}
