package sim

import (
	"testing"
	"time"
)

// BenchmarkSleep measures one sleep of a process, the kernel's commonest
// call. A lone sleeper's wake-up is always the next dispatch, so it continues
// in place; sleepers that share every tick always have a wake-up due before
// theirs, so each sleep parks and is dispatched from the queue — the raw
// event round trip every simulated I/O spends in the kernel.
func BenchmarkSleep(b *testing.B) {
	for _, bc := range []struct {
		name     string
		sleepers int
		inPlace  bool // every sleep continues in place; else every sleep parks
	}{{"lone", 1, true}, {"contended", 4, false}} {
		b.Run(bc.name, func(b *testing.B) {
			e := New(1)
			per := max(b.N/bc.sleepers, 1)
			n := per * bc.sleepers
			for w := 0; w < bc.sleepers; w++ {
				e.Go("sleeper", func(p *Proc) {
					for i := 0; i < per; i++ {
						p.Sleep(time.Microsecond)
					}
				})
			}
			b.ResetTimer()
			e.Run()
			b.StopTimer()
			want := int64(0)
			if bc.inPlace {
				want = int64(n)
			}
			if e.continued != want {
				b.Fatalf("%d of %d sleeps continued in place, want %d", e.continued, n, want)
			}
		})
	}
}

func BenchmarkResourceHandoff(b *testing.B) {
	e := New(1)
	r := NewResource("x", 1)
	for w := 0; w < 4; w++ {
		e.Go("worker", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				r.Use(p, time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSpawn measures spawn/finish round trips — dominated by the
// process free pool once it warms up.
func BenchmarkProcSpawn(b *testing.B) {
	e := New(1)
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Go("child", func(q *Proc) {}).Wait(p)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkAfterCallback measures the callback path: no process, just heap
// scheduling and dispatch.
func BenchmarkAfterCallback(b *testing.B) {
	e := New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, step)
		}
	}
	e.After(time.Microsecond, step)
	b.ResetTimer()
	e.Run()
}

// BenchmarkPoint measures a named point with no handler, what every product
// run pays at each one: it must neither allocate nor schedule an event.
func BenchmarkPoint(b *testing.B) {
	e := New(1)
	at := Intern("sim.bench.point")
	e.Go("caller", func(p *Proc) {
		before := e.Stats().EventsScheduled
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p.Point(at, "key") {
				b.Fatal("a point with no handler ended the operation")
			}
		}
		b.StopTimer()
		if got := e.Stats().EventsScheduled; got != before {
			b.Fatalf("%d points scheduled %d events", b.N, got-before)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.Point(at, "key") }); allocs != 0 {
			b.Fatalf("a point with no handler allocates %v times", allocs)
		}
	})
	e.Run()
}
