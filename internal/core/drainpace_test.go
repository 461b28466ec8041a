package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
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
		eng.Drain()
		if q.Limit(qos.Dedup) != 0 || q.Weight(qos.Dedup) != eng.rateBase || reg.Gauge("dedup_rate_policy_parked").Value() != 1 {
			t.Errorf("after Drain: limit %v weight %d (base %d) parked %d, want 0, base, 1",
				q.Limit(qos.Dedup), q.Weight(qos.Dedup), eng.rateBase, reg.Gauge("dedup_rate_policy_parked").Value())
		}
		eng.WaitIdle(p)
		if took := (p.Now() - t0).Duration(); took > iv+50*time.Millisecond {
			t.Errorf("drain took %v with a flush asleep in WaitTurn, want at most one interval (%v) plus the unpaced work", took, iv)
		}
		if got := eng.Stats().ChunksFlushed; got != 32 {
			t.Errorf("drain flushed %d chunks, want 32", got)
		}
	})
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
				eng.RequestStop()
			})
		})
	}
}
