package experiments

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dedupstore/internal/chaos"
	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// Chaos is the availability experiment: a dedup store under continuous
// foreground load takes a seeded OSD crash, and the report walks the whole
// reaction chain — heartbeat detection, degraded I/O, mark-out, remap,
// recovery, rejoin — as an availability timeline with the paper-relevant
// outcome: zero foreground failures and intact dedup invariants.
//
// Everything runs on the virtual clock from a fixed seed, so a given
// (seed, scale) pair reproduces bit-for-bit, faults landing between the
// same I/O events on every run.

// chaosScenario selects the chunk-pool protection scheme and fault shape
// under test.
type chaosScenario struct {
	Name  string
	Chunk rados.Redundancy
	// KillN, when > 0, replaces the default single 4-second crash with a
	// chaos.CrashBurst of KillN short kills cycling through the OSDs across
	// the load window — each one lands mid-flush (kill-during-flush), at
	// several times the single-crash fault rate.
	KillN int
	// GCDuring additionally runs a garbage-collection loop concurrently
	// with the load, so kills also land inside GC passes (kill-during-GC)
	// and the generation-checked sweep is exercised against live increfs.
	GCDuring bool
}

// chaosEvent is one timeline row.
type chaosEvent struct {
	At   time.Duration // virtual time from experiment start
	What string
}

// ChaosResult is one scenario's outcome.
type ChaosResult struct {
	Scenario string
	Timeline []chaosEvent

	// Availability measures.
	DetectLatency time.Duration // crash -> marked down
	Downtime      time.Duration // summed over the schedule's crashes: crash -> process restarted
	MTTR          time.Duration // crash -> cluster settled at full redundancy

	// Work absorbed by the degraded-I/O machinery.
	DegradedReads  int64
	DegradedWrites int64
	Timeouts       int64
	ClientRetries  int64
	ReplicaHeals   int64
	RecoveredBytes int64

	// Invariants after the dust settles.
	ForegroundErrors int
	VerifyErrors     int
	Reconciled
}

// chaosScenarios covers both protection schemes for the chunk pool,
// plus the high-rate kill schedules that stress the two-phase reference
// protocol: kill-during-flush and kill-during-GC at 5x the single-crash
// fault rate.
func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{Name: "rep2", Chunk: rados.ReplicatedN(2)},
		{Name: "ec2+1", Chunk: rados.ErasureKM(2, 1)},
		{Name: "rep2-killflush", Chunk: rados.ReplicatedN(2), KillN: 5},
		{Name: "rep2-killgc", Chunk: rados.ReplicatedN(2), KillN: 5, GCDuring: true},
	}
}

// ChaosSeeded runs every scenario with the same seed and fault schedule,
// one run each.
func ChaosSeeded(sc Scale, seed int64) []ChaosResult {
	return Runs(sc, chaosScenarios(), func(tb *Testbed, scn chaosScenario) ChaosResult {
		return chaosRun(tb, sc, scn, seed)
	})
}

func chaosRun(tb *Testbed, sc Scale, scn chaosScenario, seed int64) ChaosResult {
	res := ChaosResult{Scenario: scn.Name}
	h := tb.harness(seed, 4, 4)
	s := h.dedupStore(func(cfg *core.Config) {
		cfg.ChunkRedundancy = scn.Chunk
		cfg.Rate.Enabled = false
		cfg.HitSet.HitCount = 1000 // nothing is "hot": everything flushes
		cfg.DedupThreads = 4
		cfg.FalsePositiveRefs = true // crash-safe refcount mode (§4.6)
	})
	mon := h.startMonitor()
	s.StartEngine()

	const (
		workers = 4
		objSize = 16 << 10
		crashAt = time.Second
		loadFor = 8 * time.Second
	)
	objects := sc.countMin(96, 16)
	perWorker := objects / workers

	// The fault schedule starts with the load at t0. The kill scenarios swap
	// the single long crash for a burst of short kills: each is long enough
	// (1.3s) for the heartbeat monitor to mark the OSD down, but the 1.4s
	// spacing keeps at most one OSD dead at once.
	sched := chaos.Schedule{{At: crashAt, Kind: chaos.KindCrashOSD, OSD: 5, Duration: 4 * time.Second}}
	if scn.KillN > 0 {
		sched = chaos.CrashBurst(h.c.OSDs(), scn.KillN, crashAt, 7*time.Second, 1300*time.Millisecond)
	}
	for _, f := range sched {
		res.Downtime += f.Duration
	}
	inj := chaos.NewInjector(h.c)
	shadow := make([][]byte, objects)
	var t0 sim.Time
	// retrying is a client that absorbs the fault window in retries.
	retrying := func(name string) *client.RetryBackend {
		return client.NewRetryBackend(&client.DedupBackend{Client: s.Client(name)}, client.DefaultRetryPolicy(), h.c.Metrics())
	}

	h.run(func(p *sim.Proc) {
		// Preload half the namespace so the crash window also hits reads,
		// deref-rewrites and flushes of pre-existing state.
		pre := rand.New(rand.NewSource(seed + 100))
		backend := retrying("preload")
		for i := 0; i < objects/2; i++ {
			shadow[i] = chaosObject(pre, objSize)
			if err := backend.Write(p, chaosOID(i), 0, shadow[i]); err != nil {
				res.ForegroundErrors++
			}
		}
		s.Engine().DrainAndWait(p)
		s.StartEngine() // workers keep flushing through the fault window

		t0 = p.Now()
		inj.Apply(sched)
		var sigs []*sim.Signal
		if scn.GCDuring {
			sigs = append(sigs, p.Go("gcloop", func(q *sim.Proc) {
				// Collection passes overlap the kill windows; errors beyond
				// the retry budget are tolerated (the post-mortem GC re-runs)
				// but the pass must never violate an invariant.
				for q.Now() < t0+sim.Time(loadFor) {
					_, _ = s.GC(q)
					q.Sleep(400 * time.Millisecond)
				}
			}))
		}
		for w := 0; w < workers; w++ {
			sigs = append(sigs, p.Go(fmt.Sprintf("load%d", w), func(q *sim.Proc) {
				rng := rand.New(rand.NewSource(seed + int64(w)))
				be := retrying(fmt.Sprintf("client%d", w))
				for q.Now() < t0+sim.Time(loadFor) {
					i := w*perWorker + rng.Intn(perWorker)
					data := chaosObject(rng, objSize)
					if err := be.Write(q, chaosOID(i), 0, data); err != nil {
						res.ForegroundErrors++
					} else {
						shadow[i] = data
					}
					if shadow[i] != nil && rng.Intn(3) == 0 {
						if _, err := be.Read(q, chaosOID(i), 0, int64(len(shadow[i]))); err != nil {
							res.ForegroundErrors++
						}
					}
					q.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
				}
			}))
		}
		sim.WaitAll(p, sigs...)

		mon.WaitSettled(p)
		s.Engine().DrainAndWait(p)
		res.MTTR = (p.Now() - t0).Duration() - crashAt

		// Post-mortem: dedup invariants must have survived the window.
		res.Reconciled = reconcile(p, s)
		verify := retrying("verify")
		for i, want := range shadow {
			if want == nil {
				continue
			}
			got, err := verify.Read(p, chaosOID(i), 0, int64(len(want)))
			if err != nil || string(got) != string(want) {
				res.VerifyErrors++
			}
		}
	})

	// Assemble the timeline from the injector and monitor event streams.
	rel := func(at sim.Time) time.Duration { return (at - t0).Duration() }
	for _, ev := range inj.Events() {
		what := "fault: " + ev.Fault.String()
		if ev.Revert {
			what = "fault reverted: " + ev.Fault.String()
		}
		res.Timeline = append(res.Timeline, chaosEvent{At: rel(ev.At), What: what})
	}
	for _, ev := range mon.Events() {
		var what string
		switch ev.Kind {
		case "down":
			what = fmt.Sprintf("monitor marked osd.%d down", ev.OSD)
			if res.DetectLatency == 0 {
				res.DetectLatency = rel(ev.At) - crashAt
			}
		case "out":
			what = fmt.Sprintf("monitor marked osd.%d out (PGs remap)", ev.OSD)
		case "rejoin":
			what = fmt.Sprintf("osd.%d rejoined", ev.OSD)
		case "recovered":
			what = "recovery pass complete"
		}
		res.Timeline = append(res.Timeline, chaosEvent{At: rel(ev.At), What: what})
	}
	slices.SortStableFunc(res.Timeline, func(a, b chaosEvent) int { return cmp.Compare(a.At, b.At) })

	reg := h.c.Metrics()
	res.DegradedReads = reg.Counter("rados_degraded_reads_total").Value()
	res.DegradedWrites = reg.Counter("rados_degraded_writes_total").Value()
	res.Timeouts = reg.Counter("rados_requests_timed_out_total").Value()
	res.ClientRetries = reg.Counter("client_retries_total").Value()
	res.ReplicaHeals = reg.Counter("rados_replica_heals_total").Value()
	res.RecoveredBytes = h.c.RecoveredBytes()
	return res
}

func chaosOID(i int) string { return fmt.Sprintf("chaos-o%03d", i) }

// chaosObject builds a pseudo-random object whose 4 KiB blocks are drawn
// from a small pool, giving the workload a ~50% dedup ratio.
func chaosObject(rng *rand.Rand, size int) []byte {
	const block = 4096
	data := make([]byte, size)
	for off := 0; off < size; off += block {
		b := data[off:]
		if len(b) > block {
			b = b[:block]
		}
		if rng.Intn(2) == 0 {
			// One of 8 shared blocks: dedupable across objects.
			fill := byte(rng.Intn(8))
			for i := range b {
				b[i] = fill
			}
		} else {
			rng.Read(b)
		}
	}
	return data
}

// ChaosTables renders each scenario as a timeline table plus a summary.
func ChaosTables(results []ChaosResult) []Table {
	var out []Table
	for _, r := range results {
		timeline := Table{
			Title:   fmt.Sprintf("Chaos availability timeline (chunk pool %s)", r.Scenario),
			Columns: []string{"t (virtual)", "event"},
		}
		for _, ev := range r.Timeline {
			timeline.Rows = append(timeline.Rows, []string{ev.At.String(), ev.What})
		}
		out = append(out, timeline)
		out = append(out, Table{
			Title:   fmt.Sprintf("Chaos summary (chunk pool %s)", r.Scenario),
			Columns: []string{"measure", "value"},
			Rows: [][]string{
				{"detection latency", r.DetectLatency.String()},
				{"process downtime", r.Downtime.String()},
				{"time to full redundancy (MTTR)", r.MTTR.String()},
				{"degraded reads served", fmt.Sprint(r.DegradedReads)},
				{"degraded writes applied", fmt.Sprint(r.DegradedWrites)},
				{"requests timed out", fmt.Sprint(r.Timeouts)},
				{"client retries absorbed", fmt.Sprint(r.ClientRetries)},
				{"replica heal-on-write repairs", fmt.Sprint(r.ReplicaHeals)},
				{"bytes moved by recovery", mb(r.RecoveredBytes)},
				{"foreground op failures", fmt.Sprint(r.ForegroundErrors)},
				{"objects failing verification", fmt.Sprint(r.VerifyErrors)},
				{"dedup scrub issues", fmt.Sprint(r.ScrubIssues)},
				{"stale refs after GC", fmt.Sprint(r.StaleRefs)},
				{"audit repairs applied", fmt.Sprint(r.AuditRepairs)},
				{"lost chunks", fmt.Sprint(r.LostChunks)},
			},
			Notes: []string{
				"all times virtual; fixed seed makes the run bit-for-bit reproducible",
				"foreground failures, verification failures, scrub issues, residual stale refs and lost chunks must all be 0",
			},
		})
	}
	return out
}
