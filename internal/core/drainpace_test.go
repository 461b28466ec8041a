package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

// A drain waits for devices, not for the rate policy: these tests hold a
// foreground above the high watermark right up to the drain (or through it)
// and check that the drain neither inherits the echo nor loses the policy.

// noteForeground reports 600 foreground ops per 100 ms bucket — 6000 IOPS,
// above DefaultRate's HighIOPS — until *stop is set.
func noteForeground(e *env, stop *bool) {
	e.eng.GoDaemon("fg-echo", func(p *sim.Proc) {
		for !*stop {
			for i := 0; i < 600; i++ {
				e.c.ForegroundOps().Note(4096)
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
}

// writeObjects writes n objects of 16 unique 4 KiB chunks each.
func writeObjects(t *testing.T, e *env, p *sim.Proc, n int) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 16*4096)
	for i := 0; i < n; i++ {
		rng.Read(data)
		if err := e.cl.Write(p, fmt.Sprintf("obj%d", i), 0, data); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDrainIsUnpaced(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  func(*testing.T, func(*Config)) *env
	}{{"static", newDedupEnv}, {"cdc", newCDCEnv}} {
		t.Run(tc.name, func(t *testing.T) {
			// The same backlog drained twice: once with the policy on and the
			// foreground above HighIOPS until the instant of the drain, once
			// with rate control off.
			drain := func(rate RateConfig) (took, waited time.Duration) {
				e := tc.env(t, func(cfg *Config) { cfg.Rate = rate })
				e.run(t, func(p *sim.Proc) {
					writeObjects(t, e, p, 8)
					stop := false
					noteForeground(e, &stop)
					p.Sleep(time.Second)
					stop = true
					if iops := e.c.ForegroundOps().RecentIOPS(); iops <= DefaultRate().HighIOPS {
						t.Fatalf("foreground at the drain = %v IOPS, want above the high watermark", iops)
					}
					t0 := p.Now()
					e.s.Engine().DrainAndWait(p)
					took = (p.Now() - t0).Duration()
				})
				if st := e.s.Engine().Stats(); st.ChunksFlushed == 0 {
					t.Fatalf("drain flushed nothing: %+v", st)
				}
				e.checkScrub(t)
				return took, e.c.Metrics().Histogram("dedup_pacing_wait").Sum()
			}
			free, _ := drain(RateConfig{})
			got, waited := drain(DefaultRate())
			if got > free+free/10 {
				t.Errorf("drain under a stopped foreground's echo took %v, want within 10%% of the unthrottled %v", got, free)
			}
			if waited != 0 {
				t.Errorf("dedup_pacing_wait total inside the drain = %v, want 0", waited)
			}
		})
	}
}

// A flush already asleep in WaitTurn when the drain begins leaves at its next
// re-check: the drain is over one admission interval (plus the unpaced work)
// later, though the foreground never stops.
func TestDrainReleasesSleepingFlush(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.Rate = DefaultRate() })
	e.run(t, func(p *sim.Proc) {
		stop := false
		noteForeground(e, &stop)
		defer func() { stop = true }()
		writeObjects(t, e, p, 2)
		e.s.StartEngine()
		p.Sleep(4 * ratePolicyTick)
		q, reg := e.c.QoS(), e.c.Metrics()
		iv := q.Limit(qos.Dedup)
		if iv <= 0 {
			t.Fatal("rate policy set no dedup limit under load")
		}
		if before, paced := e.s.Engine().Stats().ChunksFlushed, reg.Histogram("dedup_pacing_wait").Count(); before >= 16 || paced == 0 {
			t.Errorf("want a paced flush in progress, got %d chunks flushed, %d paced slots recorded", before, paced)
		}
		eng := e.s.Engine()
		t0 := p.Now()
		drained := p.Go("drain", eng.DrainAndWait)
		p.Sleep(0) // the drain runs up to its first I/O
		if q.Limit(qos.Dedup) != 0 || q.Weight(qos.Dedup) != eng.rateBase || reg.Gauge("dedup_rate_policy_parked").Value() != 1 {
			t.Errorf("drain under way: limit %v weight %d (base %d) parked %d, want 0, base, 1",
				q.Limit(qos.Dedup), q.Weight(qos.Dedup), eng.rateBase, reg.Gauge("dedup_rate_policy_parked").Value())
		}
		sim.WaitAll(p, drained)
		if took := (p.Now() - t0).Duration(); took > iv+50*time.Millisecond {
			t.Errorf("drain took %v with a flush asleep in WaitTurn, want at most one interval (%v) plus the unpaced work", took, iv)
		}
		if got := eng.Stats().ChunksFlushed; got != 32 {
			t.Errorf("drain flushed %d chunks, want 32", got)
		}
	})
}

// TestDrainRunsRoundsUntilClean: a flush that fails puts its object back on a
// dirty list its agent has already swept; the drain returns only after a
// later round has flushed it.
func TestDrainRunsRoundsUntilClean(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.run(t, func(p *sim.Proc) {
		writeObjects(t, e, p, 8)
		p.Sleep(time.Millisecond) // let the dirty-log appends land
		crashed := ""
		e.at(atAfterIntent, func(_ *sim.Proc, oid string) bool {
			if crashed == "" {
				crashed = oid
				return true
			}
			return false
		})
		e.s.Engine().DrainAndWait(p)
		e.eng.SetPoints(nil)
		if st := e.s.Engine().Stats(); crashed == "" || st.Requeued != 1 || st.ChunksFlushed != 8*16 {
			t.Errorf("flush of %q crashed; stats %+v, want one requeue and all %d chunks flushed", crashed, st, 8*16)
		}
		for i := 0; i < 8; i++ {
			for _, en := range entries(t, p, e, fmt.Sprintf("obj%d", i)) {
				if en.Dirty {
					t.Errorf("obj%d slot %d still dirty after the drain", i, en.Start)
				}
			}
		}
		checkClean(t, p, e)
	})
	e.checkScrub(t)
}

// TestDrainScalesOut: a drain runs one agent per OSD over the PGs it leads, so
// the same backlog — 64 one-MiB objects of distinct 32 KiB chunks — drains
// faster on a wider cluster (with two workers whatever the OSD count it was
// flat: 207 / 209 / 215 MB/s on these three).
func TestDrainScalesOut(t *testing.T) {
	const objects, objSize = 64, 1 << 20
	drainMBps := func(hosts, osdsPerHost int) float64 {
		eng := sim.New(11)
		defer eng.Close()
		s, err := Open(rados.NewTestbed(eng, simcost.Default(), hosts, osdsPerHost), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var took time.Duration
		eng.Go("test", func(p *sim.Proc) {
			cl := s.Client("client0")
			data := make([]byte, objSize)
			for i := 0; i < objects; i++ {
				for off := 0; off < objSize; off += 32 << 10 {
					copy(data[off:], fmt.Sprintf("obj%d.%d", i, off))
				}
				if err := cl.Write(p, fmt.Sprintf("obj%d", i), 0, data); err != nil {
					t.Error(err)
					return
				}
			}
			t0 := p.Now()
			s.Engine().DrainAndWait(p)
			took = (p.Now() - t0).Duration()
		})
		eng.Run()
		if st := s.Engine().Stats(); st.ChunksFlushed != objects*objSize/(32<<10) {
			t.Fatalf("%dx%d: drain flushed %d chunks, want %d", hosts, osdsPerHost, st.ChunksFlushed, objects*objSize/(32<<10))
		}
		reg := s.Cluster().Metrics()
		if agents, drains := reg.Gauge("dedup_drain_agents").Value(), reg.Histogram("dedup_drain_seconds"); agents != int64(hosts*osdsPerHost) || drains.Count() != 1 || drains.Sum() != took {
			t.Errorf("%dx%d: dedup_drain_agents %d, dedup_drain_seconds %d drains in %v; want %d, 1 in %v",
				hosts, osdsPerHost, agents, drains.Count(), drains.Sum(), hosts*osdsPerHost, took)
		}
		return objects * objSize / 1e6 / took.Seconds()
	}
	small, mid, wide := drainMBps(4, 2), drainMBps(4, 4), drainMBps(8, 4)
	t.Logf("drain MB/s on 8 / 16 / 32 OSDs: %.0f / %.0f / %.0f", small, mid, wide)
	if !(small < mid && mid < wide) {
		t.Errorf("drain MB/s %.0f / %.0f / %.0f on 8 / 16 / 32 OSDs, want it to rise with the OSD count", small, mid, wide)
	}
	if wide < 1.3*mid {
		t.Errorf("drain on 32 OSDs at %.0f MB/s, want at least 1.3x the %.0f MB/s on 16", wide, mid)
	}
}

// TestDrainSharesSkewedBacklog: 16 one-MiB objects whose metadata all lands
// on one OSD. That OSD's agent lists them, and the agents whose own PGs are
// clean take objects off the end of its queue, so the backlog drains well
// under 16 times one object's drain (one agent alone took 0.79x that).
func TestDrainSharesSkewedBacklog(t *testing.T) {
	const objects, objSize = 16, 1 << 20
	drain := func(n int) (took time.Duration, shared int64) {
		eng := sim.New(11)
		defer eng.Close()
		c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
		s, err := Open(c, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		names := skewedNames(c, s, c.OSDs()[0], n)
		eng.Go("test", func(p *sim.Proc) {
			cl := s.Client("client0")
			data := make([]byte, objSize)
			for _, oid := range names {
				for off := 0; off < objSize; off += 32 << 10 {
					copy(data[off:], fmt.Sprintf("%s.%d", oid, off))
				}
				if err := cl.Write(p, oid, 0, data); err != nil {
					t.Error(err)
					return
				}
			}
			t0 := p.Now()
			s.Engine().DrainAndWait(p)
			took = (p.Now() - t0).Duration()
		})
		eng.Run()
		if st := s.Engine().Stats(); st.ChunksFlushed != int64(n*objSize/(32<<10)) {
			t.Fatalf("%d objects: drain flushed %d chunks, want %d", n, st.ChunksFlushed, n*objSize/(32<<10))
		}
		return took, c.Metrics().Counter("dedup_drain_shared_total").Value()
	}
	t1, _ := drain(1)
	tn, shared := drain(objects)
	t.Logf("one object %v, %d objects %v (%.2fx %d x t1), %d shared", t1, objects, tn, float64(tn)/float64(objects*t1), objects, shared)
	if tn > objects*t1/2 {
		t.Errorf("%d objects on one primary drained in %v, want at most half of %d x the one-object %v", objects, tn, objects, t1)
	}
	if shared == 0 {
		t.Error("dedup_drain_shared_total = 0, want agents to take work off the loaded queue")
	}
}

// skewedNames returns n object names whose metadata PG's primary is osd.
func skewedNames(c *rados.Cluster, s *Store, osd, n int) []string {
	var names []string
	for i := 0; len(names) < n; i++ {
		oid := fmt.Sprintf("skew%d", i)
		if id, _, err := c.PGPrimary(s.meta, c.PGOf(s.meta, oid).Seq); err == nil && id == osd {
			names = append(names, oid)
		}
	}
	return names
}

// drainAgents groups the dedup.flush spans the trace ring still holds by the
// dedup.drain agent span they ran under, agents in the order they finished.
func drainAgents(c *rados.Cluster) (agents []metrics.Span, flushes map[uint64][]metrics.Span) {
	flushes = make(map[uint64][]metrics.Span)
	for _, sp := range c.Trace().Recent(int(c.Trace().Total())) {
		switch sp.Name {
		case "dedup.drain":
			agents = append(agents, sp)
		case "dedup.flush":
			flushes[sp.Parent] = append(flushes[sp.Parent], sp)
		}
	}
	return agents, flushes
}

// inFlight is the most spans open at one instant; one that ends at t is
// closed before one that starts at t opens.
func inFlight(spans []metrics.Span) int {
	most := 0
	for _, sp := range spans {
		open := 0
		for _, o := range spans {
			if o.Start <= sp.Start && sp.Start < o.End {
				open++
			}
		}
		most = max(most, open)
	}
	return most
}

// TestDrainAgentOverlapsFlushes: a backlog whose metadata all lands on one
// OSD, more objects than the other agents' slots can take off the end of its
// queue. Each agent keeps more than one flush in flight and never more than
// agentMaxOps, each object is flushed once, and the store scrubs clean. Then
// one apply at the loaded OSD fails (store.FailApplies, armed after a flush's
// bind): the flush it belongs to is requeued, and the drain's next round
// flushes it.
func TestDrainAgentOverlapsFlushes(t *testing.T) {
	const objects, slots = 96, 4
	e := newDedupEnv(t, nil)
	osd := e.c.OSDs()[0]
	names := skewedNames(e.c, e.s, osd, objects)
	write := func(p *sim.Proc, gen int) {
		data := make([]byte, slots*4096)
		for _, oid := range names {
			for off := 0; off < len(data); off += 4096 {
				copy(data[off:], fmt.Sprintf("%s.%d.%d", oid, off, gen))
			}
			if err := e.cl.Write(p, oid, 0, data); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(time.Millisecond) // let the dirty-log appends land
	}
	e.run(t, func(p *sim.Proc) {
		write(p, 0)
		e.s.Engine().DrainAndWait(p)
	})
	agents, flushes := drainAgents(e.c)
	if len(agents) != 2*len(e.c.OSDs()) {
		t.Fatalf("%d dedup.drain spans, want one per OSD in each of two rounds", len(agents))
	}
	total := 0
	for _, ag := range agents {
		fl := flushes[ag.ID]
		total += len(fl)
		if n := inFlight(fl); len(fl) > 0 && (n < 2 || n > agentMaxOps) {
			t.Errorf("agent span %d: %d flushes, at most %d in flight; want 2..%d", ag.ID, len(fl), n, agentMaxOps)
		}
	}
	if total != objects || len(flushes) != len(e.c.OSDs()) {
		t.Errorf("%d flushes under %d agents, want %d under all %d", total, len(flushes), objects, len(e.c.OSDs()))
	}
	if got := e.c.Metrics().Counter("dedup_objects_scanned_total").Value(); got != objects {
		t.Errorf("dedup_objects_scanned_total = %d, want %d: each object flushed once", got, objects)
	}
	e.checkScrub(t)

	st, ok := e.c.OSDStore(osd)
	if !ok {
		t.Fatalf("osd.%d has no store", osd)
	}
	failed := ""
	e.run(t, func(p *sim.Proc) {
		write(p, 1)
		e.at(atAfterBind, func(_ *sim.Proc, oid string) bool {
			if failed == "" {
				failed = oid
				st.FailApplies(1, errors.New("torn write"))
			}
			return false
		})
		e.s.Engine().DrainAndWait(p)
		e.eng.SetPoints(nil)
	})
	if got := e.s.Engine().Stats().Requeued; failed == "" || got != 1 {
		t.Fatalf("armed a failing apply after %q's bind; %d requeued, want 1", failed, got)
	}
	// The second drain's agent spans, round by round: its first round flushes
	// every object, its second the requeued one, and its third finds none.
	agents, flushes = drainAgents(e.c)
	n := len(e.c.OSDs())
	if len(agents) < 3*n || len(agents)%n != 0 {
		t.Fatalf("the trace holds %d dedup.drain spans, want rounds of %d agents, at least 3", len(agents), n)
	}
	agents = agents[len(agents)-3*n:]
	for r, want := range []int{objects, 1, 0} {
		round := agents[r*n : (r+1)*n]
		got := 0
		for _, ag := range round {
			got += len(flushes[ag.ID])
			if r > 0 && ag.Start < agents[r*n-1].End {
				t.Errorf("round %d's agent span %d starts at %v, before round %d ended", r+1, ag.ID, ag.Start, r)
			}
		}
		if got != want {
			t.Errorf("the second drain's round %d flushed %d objects, want %d", r+1, got, want)
		}
	}
	if got := e.c.Metrics().Counter("dedup_objects_scanned_total").Value(); got != 2*objects+1 {
		t.Errorf("dedup_objects_scanned_total = %d, want %d: the failed flush once more", got, 2*objects+1)
	}
	e.checkScrub(t)
}

// TestDrainTrimsScratch: the read buffers a drain's width adds to the idle
// pool are held weakly once it returns, so the next drain still reuses them
// but a GC reclaims them: the drain's peak does not stay resident.
func TestDrainTrimsScratch(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // only the GC below reclaims
	e := newDedupEnv(t, nil)
	live := func() (n int) {
		for _, w := range e.s.scratch.spare {
			if w.Value() != nil {
				n++
			}
		}
		return n
	}
	var idle, trimmed int
	e.run(t, func(p *sim.Proc) {
		writeObjects(t, e, p, 32)
		idle = len(e.s.scratch.idle)
		e.s.Engine().DrainAndWait(p)
		trimmed = live()
	})
	if len(e.s.scratch.idle) != idle || trimmed == 0 {
		t.Fatalf("after the drain: %d buffers held, %d weakly; want the %d held before and the rest weakly", len(e.s.scratch.idle), trimmed, idle)
	}
	e.run(t, func(p *sim.Proc) {
		writeObjects(t, e, p, 32)
		e.s.Engine().DrainAndWait(p)
	})
	if got := live(); got != trimmed {
		t.Errorf("a second drain of the same width left %d buffers weakly held, want the %d it reused", got, trimmed)
	}
	runtime.GC()
	if got := live(); got != 0 {
		t.Errorf("%d weakly held buffers survived a GC, want 0", got)
	}
}

func TestRatePolicyResumesAfterDrain(t *testing.T) {
	for _, restart := range []bool{true, false} {
		t.Run(fmt.Sprintf("restart=%v", restart), func(t *testing.T) {
			e := newDedupEnv(t, func(cfg *Config) { cfg.Rate = DefaultRate() })
			e.run(t, func(p *sim.Proc) {
				stop := false
				noteForeground(e, &stop)
				defer func() { stop = true }()
				writeObjects(t, e, p, 2)
				p.Sleep(ratePolicyTick) // let the last write's helpers finish before counting processes
				q, eng := e.c.QoS(), e.s.Engine()
				base, idle := q.Weight(qos.Dedup), e.eng.Stats().ProcsLive
				throttled := func() bool { return q.Limit(qos.Dedup) > 0 && q.Weight(qos.Dedup) < base }
				e.s.StartEngine()
				p.Sleep(2 * ratePolicyTick)
				if !throttled() {
					t.Fatal("rate policy did not throttle under load")
				}
				eng.DrainAndWait(p)
				if parked := e.c.Metrics().Gauge("dedup_rate_policy_parked").Value(); parked != 0 {
					t.Errorf("dedup_rate_policy_parked = %d after the drain, want 0", parked)
				}
				want := idle
				if restart {
					e.s.StartEngine()
					want += e.s.cfg.DedupThreads + 1
				}
				p.Sleep(2 * ratePolicyTick)
				if live := e.eng.Stats().ProcsLive; live != want {
					t.Errorf("%d processes live, want %d (workers plus one rate-policy daemon, or none)", live, want)
				}
				if restart && !throttled() {
					t.Errorf("policy not back two ticks after restart: limit %v weight %d (base %d)", q.Limit(qos.Dedup), q.Weight(qos.Dedup), base)
				}
				if !restart && (q.Limit(qos.Dedup) != 0 || q.Weight(qos.Dedup) != base || eng.rate.Running()) {
					t.Errorf("stopped engine left limit %v weight %d (base %d) daemon %v, want 0, base, gone",
						q.Limit(qos.Dedup), q.Weight(qos.Dedup), base, eng.rate.Running())
				}
			})
		})
	}
}
