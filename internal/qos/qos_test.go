package qos

import (
	"reflect"
	"testing"
	"time"

	"dedupstore/internal/sim"
)

// saturate spawns workers issuing back-to-back ops of the given class and
// cost until virtual time limit, and returns a counter of completed ops.
func saturate(eng *sim.Engine, s *Scheduler, cls Class, workers int, cost time.Duration, limit sim.Time) *int {
	n := new(int)
	for i := 0; i < workers; i++ {
		eng.Go(cls.String(), func(p *sim.Proc) {
			for p.Now() < limit {
				s.Use(p, cls, cost)
				*n++
			}
		})
	}
	return n
}

func TestImmediateGrantWhenIdle(t *testing.T) {
	eng := sim.New(1)
	g := NewGroup(DefaultConfig())
	s := g.NewScheduler(sim.NewResource("disk", 2))
	var elapsed time.Duration
	eng.Go("op", func(p *sim.Proc) {
		start := p.Now()
		s.Use(p, Client, time.Millisecond)
		elapsed = (p.Now() - start).Duration()
	})
	eng.Run()
	if elapsed != time.Millisecond {
		t.Fatalf("idle op took %v, want exactly the 1ms service time", elapsed)
	}
	tot := s.Snapshot()[Client]
	if tot.Admitted != 1 || tot.Queued != 0 || tot.QueueWait != 0 {
		t.Fatalf("idle op stats = %+v, want admitted=1 queued=0 wait=0", tot)
	}
}

func TestWeightedFairShare(t *testing.T) {
	var cfg Config
	cfg.Classes[Client] = ClassConfig{Weight: 300}
	cfg.Classes[Dedup] = ClassConfig{Weight: 100}
	eng := sim.New(2)
	g := NewGroup(cfg)
	s := g.NewScheduler(sim.NewResource("disk", 1))
	limit := sim.Time(400 * time.Millisecond)
	nc := saturate(eng, s, Client, 4, time.Millisecond, limit)
	nd := saturate(eng, s, Dedup, 4, time.Millisecond, limit)
	eng.Run()
	if *nc == 0 || *nd == 0 {
		t.Fatalf("no progress: client=%d dedup=%d", *nc, *nd)
	}
	ratio := float64(*nc) / float64(*nd)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("client:dedup = %d:%d (ratio %.2f), want ~3.0 for weights 300:100", *nc, *nd, ratio)
	}
}

// TestStarvationFreedom is the scheduler's reservation guarantee: under a
// saturating client load, every background class — even at the minimum
// weight — keeps making progress.
func TestStarvationFreedom(t *testing.T) {
	var cfg Config
	cfg.Classes[Client] = ClassConfig{Weight: 1000}
	for _, cls := range []Class{Dedup, Recovery, Scrub, GC} {
		cfg.Classes[cls] = ClassConfig{Weight: 0} // clamped to the minimum reservation of 1
	}
	eng := sim.New(3)
	g := NewGroup(cfg)
	s := g.NewScheduler(sim.NewResource("disk", 1))
	limit := sim.Time(2 * time.Second)
	counts := map[Class]*int{
		Client:   saturate(eng, s, Client, 8, 100*time.Microsecond, limit),
		Dedup:    saturate(eng, s, Dedup, 1, 100*time.Microsecond, limit),
		Recovery: saturate(eng, s, Recovery, 1, 100*time.Microsecond, limit),
		Scrub:    saturate(eng, s, Scrub, 1, 100*time.Microsecond, limit),
		GC:       saturate(eng, s, GC, 1, 100*time.Microsecond, limit),
	}
	eng.Run()
	for cls, n := range counts {
		if *n == 0 {
			t.Errorf("class %v starved: 0 ops completed under saturating client load", cls)
		}
	}
	for _, cls := range []Class{Dedup, Recovery, Scrub, GC} {
		if *counts[cls] >= *counts[Client] {
			t.Errorf("class %v (%d ops) should run far less than client (%d ops) at weight 1 vs 1000",
				cls, *counts[cls], *counts[Client])
		}
	}
}

func TestDepthCapBackpressure(t *testing.T) {
	var cfg Config
	cfg.Classes[Dedup] = ClassConfig{Weight: 100, MaxDepth: 2}
	eng := sim.New(4)
	g := NewGroup(cfg)
	s := g.NewScheduler(sim.NewResource("disk", 1))
	const ops = 6
	done := 0
	maxPending := 0
	for i := 0; i < ops; i++ {
		eng.Go("dedup", func(p *sim.Proc) {
			s.Use(p, Dedup, time.Millisecond)
			done++
		})
	}
	eng.GoDaemon("probe", func(p *sim.Proc) {
		for {
			snap := s.Snapshot()[Dedup]
			if pending := snap.QueueLen + snap.Inflight; pending > maxPending {
				maxPending = pending
			}
			p.Sleep(100 * time.Microsecond)
		}
	})
	eng.Run()
	if done != ops {
		t.Fatalf("completed %d/%d ops; depth cap must backpressure, not drop", done, ops)
	}
	if maxPending > 2 {
		t.Fatalf("observed %d pending dedup ops, depth cap is 2", maxPending)
	}
	if th := s.Snapshot()[Dedup].Throttled; th == 0 {
		t.Fatalf("6 concurrent ops against MaxDepth=2 should record throttled submitters")
	}
	if eng.Now() != sim.Time(ops*time.Millisecond) {
		t.Fatalf("cap-1 resource serving 6×1ms ops should finish at 6ms, got %v", eng.Now())
	}
}

func TestSetWeightRetunesLiveTraffic(t *testing.T) {
	var cfg Config
	cfg.Classes[Client] = ClassConfig{Weight: 100}
	cfg.Classes[Dedup] = ClassConfig{Weight: 100}
	eng := sim.New(5)
	g := NewGroup(cfg)
	s := g.NewScheduler(sim.NewResource("disk", 1))

	phase1 := sim.Time(200 * time.Millisecond)
	phase2 := sim.Time(400 * time.Millisecond)
	nc := saturate(eng, s, Client, 4, time.Millisecond, phase2)
	nd := saturate(eng, s, Dedup, 4, time.Millisecond, phase2)
	var c1, d1 int
	eng.GoDaemon("retune", func(p *sim.Proc) {
		p.SleepUntil(phase1)
		c1, d1 = *nc, *nd
		g.SetWeight(Dedup, 5) // watermark-style clampdown
	})
	eng.Run()
	r1 := float64(c1) / float64(d1)
	if r1 < 0.8 || r1 > 1.25 {
		t.Fatalf("equal weights phase: client:dedup ratio %.2f, want ~1", r1)
	}
	c2, d2 := *nc-c1, *nd-d1
	if d2 == 0 {
		t.Fatalf("dedup fully starved after SetWeight; reservation must keep it moving")
	}
	if r2 := float64(c2) / float64(d2); r2 < 10 {
		t.Fatalf("after weight 100->5, client:dedup ratio %.2f, want >= 10", r2)
	}
}

func TestFIFOWithinClass(t *testing.T) {
	eng := sim.New(6)
	g := NewGroup(DefaultConfig())
	s := g.NewScheduler(sim.NewResource("disk", 1))
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		// Stagger submissions by a microsecond so arrival order is defined.
		eng.GoAt(sim.Time(i)*sim.Time(time.Microsecond), "op", func(p *sim.Proc) {
			s.Use(p, Client, time.Millisecond)
			order = append(order, i)
		})
	}
	eng.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("same-class ops completed out of order: %v", order)
	}
}

func TestSchedulerNeverOversubscribesResource(t *testing.T) {
	eng := sim.New(7)
	g := NewGroup(DefaultConfig())
	res := sim.NewResource("disk", 3)
	s := g.NewScheduler(res)
	limit := sim.Time(50 * time.Millisecond)
	saturate(eng, s, Client, 6, time.Millisecond, limit)
	saturate(eng, s, Recovery, 6, time.Millisecond, limit)
	// The resource cannot hold more than its cap, so an occupancy area of
	// cap × window means the scheduler kept every slot filled throughout;
	// an empty resource queue means it never admitted past the cap.
	var held int64
	var maxQueue int
	eng.GoAt(limit, "probe", func(p *sim.Proc) { held, _, maxQueue = res.Occupancy(p.Now()) })
	eng.Run()
	if maxQueue != 0 {
		t.Fatalf("resource queued %d deep: the scheduler admitted past the cap", maxQueue)
	}
	if util := float64(held) / float64(3*limit); util != 1 {
		t.Fatalf("resource utilization %v over the saturated window, want 1 (all 3 slots held)", util)
	}
}

func TestGroupTotalsAggregate(t *testing.T) {
	eng := sim.New(8)
	g := NewGroup(DefaultConfig())
	s1 := g.NewScheduler(sim.NewResource("disk-0", 1))
	s2 := g.NewScheduler(sim.NewResource("disk-1", 1))
	eng.Go("ops", func(p *sim.Proc) {
		s1.Use(p, Client, time.Millisecond)
		s2.Use(p, Client, time.Millisecond)
		s2.Use(p, Scrub, time.Millisecond)
	})
	eng.Run()
	tot := g.Totals()
	if tot[Client].Admitted != 2 {
		t.Fatalf("client admitted = %d across group, want 2", tot[Client].Admitted)
	}
	if tot[Scrub].Admitted != 1 {
		t.Fatalf("scrub admitted = %d across group, want 1", tot[Scrub].Admitted)
	}
	if tot[Client].Busy != 2*time.Millisecond {
		t.Fatalf("client busy = %v, want 2ms", tot[Client].Busy)
	}
	if tot[Client].Class != "client" || tot[GC].Class != "gc" {
		t.Fatalf("class names wrong in totals: %+v", tot)
	}
}

// TestDeterminism re-runs an identical contended scenario and requires
// bit-identical counters and finish time.
func TestDeterminism(t *testing.T) {
	run := func() ([]ClassTotals, sim.Time) {
		eng := sim.New(9)
		g := NewGroup(DefaultConfig())
		s := g.NewScheduler(sim.NewResource("disk", 2))
		limit := sim.Time(100 * time.Millisecond)
		saturate(eng, s, Client, 5, 700*time.Microsecond, limit)
		saturate(eng, s, Dedup, 3, 1300*time.Microsecond, limit)
		saturate(eng, s, Recovery, 2, 400*time.Microsecond, limit)
		eng.Run()
		return g.Totals(), eng.Now()
	}
	t1, end1 := run()
	t2, end2 := run()
	if end1 != end2 || !reflect.DeepEqual(t1, t2) {
		t.Fatalf("scheduler is nondeterministic:\nrun1 end=%v totals=%+v\nrun2 end=%v totals=%+v", end1, t1, end2, t2)
	}
}

func TestClassString(t *testing.T) {
	want := []string{"client", "dedup", "recovery", "scrub", "gc", "tiering"}
	if got := ClassNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ClassNames() = %v, want %v", got, want)
	}
	if Class(200).String() != "invalid" {
		t.Fatalf("out-of-range class should stringify as invalid")
	}
}

func TestRateLimitSpacesAdmissions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes[Dedup].LimitInterval = 10 * time.Millisecond
	eng := sim.New(11)
	g := NewGroup(cfg)
	s := g.NewScheduler(sim.NewResource("disk", 2))
	// Three logical operations back to back on an otherwise idle device:
	// WaitTurn spaces their starts at 0/10/20ms; the device ops themselves
	// run unthrottled once admitted.
	var done []time.Duration
	eng.Go("dedup", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			g.WaitTurn(p, Dedup)
			s.Use(p, Dedup, time.Millisecond)
			done = append(done, p.Now().Duration())
		}
	})
	eng.Run()
	want := []time.Duration{
		1 * time.Millisecond, 11 * time.Millisecond, 21 * time.Millisecond,
	}
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("rate-limited completions at %v, want %v", done, want)
	}
}

func TestWaitTurnNoLimitIsFree(t *testing.T) {
	eng := sim.New(12)
	g := NewGroup(DefaultConfig())
	s := g.NewScheduler(sim.NewResource("disk", 2))
	var clientDone time.Duration
	eng.Go("client", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			g.WaitTurn(p, Client)
			s.Use(p, Client, time.Millisecond)
		}
		clientDone = p.Now().Duration()
	})
	eng.Run()
	if clientDone != 5*time.Millisecond {
		t.Fatalf("unlimited ops took %v, want 5ms", clientDone)
	}
}

func TestSetLimitClearWakesSleepersWithinOneInterval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes[Dedup].LimitInterval = 20 * time.Millisecond
	eng := sim.New(13)
	g := NewGroup(cfg)
	s := g.NewScheduler(sim.NewResource("disk", 2))
	var stamps []time.Duration
	eng.Go("dedup", func(p *sim.Proc) {
		g.WaitTurn(p, Dedup) // claims t=0, horizon 20ms
		s.Use(p, Dedup, time.Millisecond)
		g.WaitTurn(p, Dedup) // sleeps to 20ms, horizon 40ms
		s.Use(p, Dedup, time.Millisecond)
		g.SetLimit(Dedup, 0) // clears the horizon
		g.WaitTurn(p, Dedup) // no limit: returns immediately
		s.Use(p, Dedup, time.Millisecond)
		stamps = append(stamps, p.Now().Duration())
		g.SetLimit(Dedup, 20*time.Millisecond)
		g.WaitTurn(p, Dedup) // fresh horizon: no stale backlog
		s.Use(p, Dedup, time.Millisecond)
		stamps = append(stamps, p.Now().Duration())
	})
	eng.Go("late", func(p *sim.Proc) {
		// A second submitter that starts while the limit is active and is
		// asleep waiting its turn when the limit changes under it: it must
		// wake and re-check, not honor a stale reservation.
		p.Sleep(time.Millisecond)
		g.WaitTurn(p, Dedup)
		stamps = append(stamps, p.Now().Duration())
	})
	eng.Run()
	// The exact interleaving is scheduler-defined; what matters is that
	// every caller proceeds — no one keeps honoring a reservation made
	// under a limit that has since been cleared or retuned.
	if len(stamps) != 3 {
		t.Fatalf("got %d stamps: %v", len(stamps), stamps)
	}
	for _, ts := range stamps {
		if ts > 60*time.Millisecond {
			t.Fatalf("caller stalled until %v after the limit was cleared: %v", ts, stamps)
		}
	}
}

func TestChargeBillsPostpaid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes[Dedup].LimitInterval = 10 * time.Millisecond
	eng := sim.New(14)
	g := NewGroup(cfg)
	s := g.NewScheduler(sim.NewResource("disk", 2))
	var done []time.Duration
	eng.Go("dedup", func(p *sim.Proc) {
		// A batched operation covering 3 cost units: prepay one slot, run,
		// bill the remaining two postpaid. The next operation then waits
		// out the full 3-slot horizon (eligible at 30ms) instead of the
		// single prepaid interval.
		g.WaitTurn(p, Dedup)
		s.Use(p, Dedup, time.Millisecond)
		g.Charge(p, Dedup, 3)
		done = append(done, p.Now().Duration())
		g.WaitTurn(p, Dedup)
		s.Use(p, Dedup, time.Millisecond)
		done = append(done, p.Now().Duration())
	})
	eng.Run()
	want := []time.Duration{1 * time.Millisecond, 31 * time.Millisecond}
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("postpaid-billed completions at %v, want %v", done, want)
	}
}
