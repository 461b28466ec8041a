package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineEvents measures raw DES event throughput: the budget every
// simulated I/O spends in the kernel.
func BenchmarkEngineEvents(b *testing.B) {
	e := New(1)
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
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
