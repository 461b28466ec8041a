package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := New(1)
	var at Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		at = p.Now()
	})
	if left := e.Run(); left != 0 {
		t.Fatalf("leftover procs: %d", left)
	}
	if at != Time(10*time.Millisecond) {
		t.Fatalf("woke at %v, want 10ms", at)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	e := New(1)
	ran := 0
	e.Go("z", func(p *Proc) {
		p.Sleep(0)
		ran++
		p.Sleep(-time.Second)
		ran++
	})
	e.Run()
	if ran != 2 {
		t.Fatalf("ran=%d want 2", ran)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved: %v", e.Now())
	}
}

func TestEventOrderDeterministic(t *testing.T) {
	e := New(1)
	var order []string
	spawn := func(name string, d time.Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(d)
			order = append(order, name)
		})
	}
	spawn("c", 3*time.Millisecond)
	spawn("a", 1*time.Millisecond)
	spawn("b", 2*time.Millisecond)
	spawn("a2", 1*time.Millisecond) // same time as a: FIFO by spawn order
	e.Run()
	want := []string{"a", "a2", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := New(1)
	s := NewSignal()
	woke := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woke++
			if p.Now() != Time(5*time.Millisecond) {
				t.Errorf("woke at %v", p.Now())
			}
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		s.Fire(p)
	})
	e.Run()
	if woke != 3 {
		t.Fatalf("woke=%d want 3", woke)
	}
}

func TestSignalWaitAfterFire(t *testing.T) {
	e := New(1)
	s := NewSignal()
	done := false
	e.Go("a", func(p *Proc) {
		s.Fire(p)
		s.Wait(p) // must not block
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("wait on fired signal blocked")
	}
}

func TestGoDoneSignal(t *testing.T) {
	e := New(1)
	var finished Time
	done := e.Go("worker", func(p *Proc) { p.Sleep(7 * time.Millisecond) })
	e.Go("waiter", func(p *Proc) {
		done.Wait(p)
		finished = p.Now()
	})
	e.Run()
	if finished != Time(7*time.Millisecond) {
		t.Fatalf("join at %v, want 7ms", finished)
	}
}

func TestWaitAll(t *testing.T) {
	e := New(1)
	var at Time
	s1 := e.Go("w1", func(p *Proc) { p.Sleep(time.Millisecond) })
	s2 := e.Go("w2", func(p *Proc) { p.Sleep(3 * time.Millisecond) })
	s3 := e.Go("w3", func(p *Proc) { p.Sleep(2 * time.Millisecond) })
	e.Go("joiner", func(p *Proc) {
		WaitAll(p, s1, s2, s3)
		at = p.Now()
	})
	e.Run()
	if at != Time(3*time.Millisecond) {
		t.Fatalf("joined at %v, want 3ms", at)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := New(1)
	r := NewResource("disk", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Go("job", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	e := New(1)
	r := NewResource("disks", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Go("job", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	// Two at a time: finish at 10,10,20,20 ms.
	want := []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := New(1)
	r := NewResource("disk", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("job", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // arrive in order
			r.Use(p, time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestResourceBusyTime(t *testing.T) {
	e := New(1)
	r := NewResource("disk", 1)
	e.Go("a", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		r.Use(p, 10*time.Millisecond)
	})
	e.Run()
	if got := r.BusyTime(e.Now()); got != 10*time.Millisecond {
		t.Fatalf("busy=%v want 10ms", got)
	}
}

func TestQueueProducerConsumer(t *testing.T) {
	e := New(1)
	q := NewQueue[int]()
	var got []int
	e.Go("cons", func(p *Proc) {
		for {
			v, ok := q.Pop(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Go("prod", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			q.Push(p, i)
		}
		q.Close(p)
	})
	if left := e.Run(); left != 0 {
		t.Fatalf("leftover procs: %d", left)
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestQueueTryPop(t *testing.T) {
	q := NewQueue[string]()
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	e := New(1)
	e.Go("p", func(p *Proc) { q.Push(p, "x") })
	e.Run()
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	e.RunUntil(Time(3500 * time.Millisecond))
	if ticks != 3 {
		t.Fatalf("ticks=%d want 3", ticks)
	}
	if e.Now() != Time(3500*time.Millisecond) {
		t.Fatalf("now=%v", e.Now())
	}
	e.Run()
	if ticks != 10 {
		t.Fatalf("ticks=%d want 10 after full run", ticks)
	}
}

func TestAfterCallback(t *testing.T) {
	e := New(1)
	var at Time
	e.After(42*time.Millisecond, func() { at = e.Now() })
	e.Run()
	if at != Time(42*time.Millisecond) {
		t.Fatalf("callback at %v", at)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := New(1)
	total := 0
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ {
			p.Go("child", func(c *Proc) {
				c.Sleep(time.Millisecond)
				total++
			})
		}
	})
	e.Run()
	if total != 3 {
		t.Fatalf("total=%d", total)
	}
	if e.Now() != Time(2*time.Millisecond) {
		t.Fatalf("now=%v", e.Now())
	}
}

func TestBlockedProcessReported(t *testing.T) {
	e := New(1)
	s := NewSignal()
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	if left := e.Run(); left != 1 {
		t.Fatalf("left=%d want 1 (process waiting forever)", left)
	}
}

func TestSignalFireAt(t *testing.T) {
	e := New(1)
	s := NewSignal()
	var at Time
	e.Go("w", func(p *Proc) {
		s.Wait(p)
		at = p.Now()
	})
	s.FireAt(e, Time(9*time.Millisecond))
	e.Run()
	if at != Time(9*time.Millisecond) {
		t.Fatalf("at=%v", at)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := New(7)
		r := NewResource("d", 1)
		var ends []Time
		for i := 0; i < 20; i++ {
			e.Go("j", func(p *Proc) {
				d := time.Duration(p.Rand().Intn(1000)) * time.Microsecond
				p.Sleep(d)
				r.Use(p, time.Duration(p.Rand().Intn(500))*time.Microsecond)
				ends = append(ends, p.Now())
			})
		}
		e.Run()
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	e := New(1)
	ticks := 0
	e.GoDaemon("poller", func(p *Proc) {
		for {
			p.Sleep(10 * time.Millisecond)
			ticks++
		}
	})
	done := false
	e.Go("fg", func(p *Proc) {
		p.Sleep(35 * time.Millisecond)
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("foreground work did not finish")
	}
	// The daemon ran while foreground work existed, then Run returned.
	if ticks < 3 || ticks > 4 {
		t.Fatalf("daemon ticked %d times during 35ms of foreground work", ticks)
	}
	if e.Now() > Time(40*time.Millisecond) {
		t.Fatalf("run continued past foreground completion: %v", e.Now())
	}
}

func TestDaemonChildrenInheritDaemonStatus(t *testing.T) {
	e := New(1)
	e.GoDaemon("parent", func(p *Proc) {
		for {
			p.Go("child", func(c *Proc) {
				if !c.Daemon() {
					t.Error("daemon child not marked daemon")
				}
				c.Sleep(time.Millisecond)
			})
			p.Sleep(5 * time.Millisecond)
		}
	})
	e.Go("fg", func(p *Proc) { p.Sleep(12 * time.Millisecond) })
	e.Run()
	if e.Now() > Time(15*time.Millisecond) {
		t.Fatalf("daemon children kept the run alive: now=%v", e.Now())
	}
}

func TestDaemonCanUnblockForeground(t *testing.T) {
	// A non-daemon process waiting on a signal fired by a daemon must keep
	// the run going until the signal arrives.
	e := New(1)
	s := NewSignal()
	e.GoDaemon("firer", func(p *Proc) {
		p.Sleep(20 * time.Millisecond)
		s.Fire(p)
		for {
			p.Sleep(time.Hour)
		}
	})
	var woke Time
	e.Go("waiter", func(p *Proc) {
		s.Wait(p)
		woke = p.Now()
	})
	e.Run()
	if woke != Time(20*time.Millisecond) {
		t.Fatalf("waiter woke at %v, want 20ms", woke)
	}
}

func TestRunResumesDaemonsAcrossCalls(t *testing.T) {
	e := New(1)
	ticks := 0
	e.GoDaemon("poller", func(p *Proc) {
		for {
			p.Sleep(10 * time.Millisecond)
			ticks++
		}
	})
	e.Go("fg1", func(p *Proc) { p.Sleep(25 * time.Millisecond) })
	e.Run()
	first := ticks
	e.Go("fg2", func(p *Proc) { p.Sleep(25 * time.Millisecond) })
	e.Run()
	if ticks <= first {
		t.Fatalf("daemon did not resume on second Run: %d -> %d", first, ticks)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	e := New(1)
	c := NewCond()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.GoAt(Time(i)*Time(time.Millisecond), "waiter", func(p *Proc) {
			c.Wait(p)
			order = append(order, i)
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		for i := 0; i < 3; i++ {
			c.Signal(p)
			p.Sleep(time.Millisecond)
		}
	})
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("cond woke waiters out of FIFO order: %v", order)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := New(1)
	c := NewCond()
	woke := 0
	for i := 0; i < 4; i++ {
		e.Go("waiter", func(p *Proc) {
			c.Wait(p)
			woke++
		})
	}
	e.Go("caster", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if c.Waiters() != 4 {
			t.Errorf("Waiters() = %d, want 4", c.Waiters())
		}
		c.Broadcast(p)
	})
	e.Run()
	if woke != 4 {
		t.Fatalf("broadcast woke %d of 4 waiters", woke)
	}
	if c.Waiters() != 0 {
		t.Fatalf("waiters remain after broadcast: %d", c.Waiters())
	}
}

func TestCondSignalNoWaitersIsNoop(t *testing.T) {
	e := New(1)
	c := NewCond()
	e.Go("signaler", func(p *Proc) {
		c.Signal(p) // must not latch: a later Wait still parks
		done := false
		p.Go("waiter", func(q *Proc) {
			c.Wait(q)
			done = true
		})
		p.Sleep(time.Millisecond)
		if done {
			t.Errorf("Wait returned without a Signal; Cond must not latch like Signal")
		}
		c.Signal(p)
		p.Sleep(time.Millisecond)
		if !done {
			t.Errorf("waiter never woke after Signal")
		}
	})
	e.Run()
}

// A process runs on the thread of control that called Run, so a panic in one
// unwinds into Run's caller like any other panic — and the engine it leaves
// behind accepts new work.
func TestProcPanicUnwindsThroughRun(t *testing.T) {
	e := New(1)
	e.Go("bystander", func(p *Proc) { p.Sleep(time.Millisecond) })
	e.Go("bomb", func(p *Proc) { panic("boom") })
	recovered := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if recovered != "boom" {
		t.Fatalf("recovered %v from Run, want the process's panic value", recovered)
	}
	ran := false
	e.Go("after", func(p *Proc) {
		if p.Daemon() || p.Tracer() != nil {
			t.Error("spawn after a panic inherited from the dead process")
		}
		p.Sleep(time.Millisecond)
		ran = true
	})
	if left := e.Run(); !ran || left != 1 { // must not panic "nested Run"; the bomb stays live forever
		t.Fatalf("second Run: ran=%v, %d processes left (want the dead one only)", ran, left)
	}
}

// runtime.Goexit inside a process — what t.Fatal, t.FailNow and t.SkipNow
// do — ends the goroutine that called Run, deferred calls included, instead
// of hanging the engine.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	e := New(1)
	e.Go("quitter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	done := make(chan struct{})
	returned := false
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Goexit inside a process hung the goroutine running the engine")
	}
	if returned {
		t.Fatal("Run returned normally after a process called Goexit")
	}
}

// Nothing ties an engine to one goroutine: a daemon parked when one Run
// ended resumes under a Run issued from another goroutine.
func TestDaemonResumesUnderRunFromAnotherGoroutine(t *testing.T) {
	e := New(1)
	ticks := 0
	e.GoDaemon("poller", func(p *Proc) {
		for {
			p.Sleep(10 * time.Millisecond)
			ticks++
		}
	})
	e.Go("fg1", func(p *Proc) { p.Sleep(25 * time.Millisecond) })
	e.Run()
	first := ticks
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Go("fg2", func(p *Proc) { p.Sleep(25 * time.Millisecond) })
		e.RunUntil(e.Now() + Time(15*time.Millisecond))
		e.Run()
	}()
	<-done
	if first != 2 || ticks != 4 {
		t.Fatalf("daemon ticked %d times in the first Run and %d in all, want 2 and 4", first, ticks)
	}
}

// The process counters are part of the benchmark's digest, so the pool's
// behaviour is pinned: 300 short processes, three times over. The first wave
// creates all 300 (plus the driver), 256 of them park in the pool as they
// finish, and each later wave reuses those and creates the other 44.
func TestProcPoolCountersPinned(t *testing.T) {
	e := New(1)
	e.Go("driver", func(p *Proc) {
		for wave := 0; wave < 3; wave++ {
			sigs := make([]*Signal, 300)
			for i := range sigs {
				d := time.Duration(i%7) * time.Microsecond
				sigs[i] = p.Go("short", func(q *Proc) { q.Sleep(d) })
			}
			WaitAll(p, sigs...)
		}
	})
	if left := e.Run(); left != 0 {
		t.Fatalf("leftover procs: %d", left)
	}
	st := e.Stats()
	got := [4]int64{st.ProcsSpawned, st.ProcsReused, int64(st.ProcsPooled), st.EventsDispatched}
	if want := [4]int64{1 + 300 + 44 + 44, 256 + 256, 256, 1822}; got != want {
		t.Fatalf("spawned, reused, pooled, dispatched = %v, want %v", got, want)
	}
}
