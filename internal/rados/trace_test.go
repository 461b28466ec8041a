package rados

import (
	"testing"
	"time"

	"dedupstore/internal/metrics"
	"dedupstore/internal/sim"
)

// TestWriteSpanNesting drives one replicated write and checks that the trace
// sink saw the top-level op span plus nested journal/replica child spans
// whose resource breakdowns fold into the parent.
func TestWriteSpanNesting(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 32<<10)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.Write(p, e.rep, "obj", 0, data); err != nil {
			e.fail(err)
		}
	})

	spans := e.c.Trace().Recent(64)
	var write *metrics.Span
	var children []metrics.Span
	for i := range spans {
		switch spans[i].Name {
		case "rados.write":
			write = &spans[i]
		case "rados.replica", "rados.journal":
			children = append(children, spans[i])
		}
	}
	if write == nil {
		t.Fatal("no rados.write span recorded")
	}
	if write.Pool != "rep" || write.PG == "" || write.Bytes != int64(len(data)) {
		t.Errorf("write span identity = pool=%q pg=%q bytes=%d", write.Pool, write.PG, write.Bytes)
	}
	if write.Duration() <= 0 {
		t.Error("write span has no duration")
	}
	// Two replicas + journals, each its own child span.
	if len(children) < 2 {
		t.Fatalf("found %d child spans, want >= 2 (replica/journal)", len(children))
	}
	for _, ch := range children {
		if ch.Parent != write.ID {
			t.Errorf("%s span Parent = %d, want write span ID %d", ch.Name, ch.Parent, write.ID)
		}
	}
	// Children's disk service time must have folded into the parent span.
	var parentDisk time.Duration
	for _, r := range write.Resources {
		if len(r.Resource) >= 4 && r.Resource[:4] == "disk" {
			parentDisk += r.Hold
		}
	}
	if parentDisk <= 0 {
		t.Error("write span has no folded disk service time")
	}

	// The gateway counted and timed the op in the cluster registry.
	reg := e.c.Metrics()
	if got := reg.Counter("rados_op_total:rados.write").Value(); got != 1 {
		t.Errorf("rados_op_total:rados.write = %d, want 1", got)
	}
	h := reg.Histogram("rados_op_latency:rados.write")
	if h.Count() != 1 || h.Mean() != write.Duration() {
		t.Errorf("latency histogram n=%d mean=%v, want n=1 mean=%v", h.Count(), h.Mean(), write.Duration())
	}
}

// TestOpCounterEarlyWindow is the regression test for the first-second
// measurement bug: RecentIOPS must average over the virtual time actually
// elapsed, not the full one-second ring, so the §4.4.2 watermark controller
// sees the true foreground rate from the start instead of running
// unthrottled.
func TestOpCounterEarlyWindow(t *testing.T) {
	eng := sim.New(1)
	oc := NewOpCounter(eng)
	eng.Go("driver", func(p *sim.Proc) {
		// 2000 op/s for only 200ms of a fresh run: 400 ops total.
		for i := 0; i < 400; i++ {
			oc.Note(1000)
			p.Sleep(500 * time.Microsecond)
		}
		got := oc.RecentIOPS()
		// The buggy full-window average would report ~400; the true rate
		// is ~2000.
		if got < 1500 {
			t.Errorf("early-window IOPS = %v, want ~2000 (full-window bug reports ~400)", got)
		}
		if got > 2500 {
			t.Errorf("early-window IOPS = %v overshoots ~2000", got)
		}
		if _, tp := oc.recent(); tp < 1.5e6 || tp > 2.5e6 {
			t.Errorf("early-window throughput = %v, want ~2e6 B/s", tp)
		}
	})
	eng.Run()
}
