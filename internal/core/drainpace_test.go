package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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
				e.checkIntegrity(t)
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
		e.s.hooks.afterIntent = func(oid string) bool {
			if crashed == "" {
				crashed = oid
				return true
			}
			return false
		}
		e.s.Engine().DrainAndWait(p)
		e.s.hooks = rebindHooks{}
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
	e.checkIntegrity(t)
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
				if !restart && (q.Limit(qos.Dedup) != 0 || q.Weight(qos.Dedup) != base || eng.ratePolicyOn) {
					t.Errorf("stopped engine left limit %v weight %d (base %d) daemon %v, want 0, base, gone",
						q.Limit(qos.Dedup), q.Weight(qos.Dedup), base, eng.ratePolicyOn)
				}
			})
		})
	}
}
