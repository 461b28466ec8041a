package metrics

import (
	"fmt"
	"testing"
	"time"

	"dedupstore/internal/sim"
)

// The hot-path contract: resolve the metric handle once, then every
// observation is an atomic op. The *ByName variants measure the old pattern
// (registry lookup per observation) for comparison.

func BenchmarkCounterHandle(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterByName(b *testing.B) {
	r := NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("ops_total").Inc()
	}
}

func BenchmarkHistogramHandle(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("op_latency")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkHistogramByName(b *testing.B) {
	r := NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Histogram("op_latency").Add(time.Duration(i%1000) * time.Microsecond)
	}
}

// BenchmarkSpanStartFinish measures a full span lifecycle on the pooled
// sink: start, one virtual-time sleep, finish (ring insert + recycle).
func BenchmarkSpanStartFinish(b *testing.B) {
	e := sim.New(1)
	sink := NewTraceSink(256)
	e.Go("spans", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			sp := sink.Start(p, "bench.op")
			p.Sleep(time.Microsecond)
			sp.Finish(p)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpanTree measures a span tree shaped like a replicated write's,
// on a sink of the cluster's size: a parent span whose two child processes
// each open a span and hold two resources, one shared, so the second child
// queues for it. The untraced case runs the same tree on a nil sink: what
// it spends (process spawns and waits) is the simulation's, not the spans'.
func BenchmarkSpanTree(b *testing.B) {
	for _, name := range []string{"traced", "untraced"} {
		b.Run(name, func(b *testing.B) {
			var sink *TraceSink
			if name == "traced" {
				sink = NewTraceSink(4096)
			}
			e := sim.New(1)
			shared := sim.NewResource("disk", 1)
			op, leg := sim.Intern("bench.op"), sim.Intern("bench.leg")
			var legs [2]func(q *sim.Proc)
			for i := range legs {
				nic := sim.NewResource(fmt.Sprintf("nic.%d", i), 1)
				legs[i] = func(q *sim.Proc) {
					sp := sink.StartLabel(q, leg)
					shared.Use(q, time.Microsecond)
					nic.Use(q, time.Microsecond)
					sp.Finish(q)
				}
			}
			e.Go("tree", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					sp := sink.StartLabel(p, op)
					first, second := p.Go("leg", legs[0]), p.Go("leg", legs[1])
					first.Wait(p)
					second.Wait(p)
					sp.Finish(p)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			b.StopTimer()
			if sink == nil {
				return
			}
			// The last tree: both legs under the parent, whose breakdown
			// holds their 4µs of service and the second leg's 1µs queue.
			spans := sink.Recent(3)
			parent := spans[2]
			if sink.Total() != int64(3*b.N) || parent.Name != "bench.op" {
				b.Fatalf("recorded %d spans ending in %q, want %d ending in bench.op", sink.Total(), parent.Name, 3*b.N)
			}
			for _, sp := range spans[:2] {
				if sp.Parent != parent.ID || sp.Service() != 2*time.Microsecond {
					b.Fatalf("leg %+v: want parent %d and 2µs of service", sp, parent.ID)
				}
			}
			if parent.Service() != 4*time.Microsecond || parent.QueueWait() != time.Microsecond {
				b.Fatalf("parent folded service %v, wait %v; want 4µs and 1µs", parent.Service(), parent.QueueWait())
			}
		})
	}
}
