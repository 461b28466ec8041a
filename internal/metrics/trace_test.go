package metrics

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dedupstore/internal/sim"
)

// span runs one op of the given service time through a fresh proc so the
// sink records a finished span.
func recordSpan(e *sim.Engine, sink *TraceSink, name string, d time.Duration) {
	e.Go(name, func(p *sim.Proc) {
		sp := sink.Start(p, name)
		p.Sleep(d)
		sp.Finish(p)
	})
	e.Run()
}

func TestTraceSinkRingAndSlowest(t *testing.T) {
	e := sim.New(1)
	sink := NewTraceSink(16)
	for i := 1; i <= 40; i++ {
		recordSpan(e, sink, "op", time.Duration(i)*time.Millisecond)
	}
	if sink.Total() != 40 {
		t.Fatalf("total = %d, want 40", sink.Total())
	}
	recent := sink.Recent(100)
	if len(recent) != 16 {
		t.Fatalf("ring holds %d spans, want capacity 16", len(recent))
	}
	// Newest last: the final recorded span had the longest sleep.
	if got := recent[len(recent)-1].Duration(); got != 40*time.Millisecond {
		t.Errorf("newest span duration = %v, want 40ms", got)
	}
	slow := sink.Slowest(3)
	if len(slow) != 3 {
		t.Fatalf("slowest returned %d spans", len(slow))
	}
	for i, want := range []time.Duration{40, 39, 38} {
		if got := slow[i].Duration(); got != want*time.Millisecond {
			t.Errorf("slowest[%d] = %v, want %vms", i, got, want)
		}
	}
	if rep := sink.Report(2); !strings.Contains(rep, "slowest 2 of 40 spans") {
		t.Errorf("unexpected report header:\n%s", rep)
	}
}

func TestTraceSinkSlowestBounded(t *testing.T) {
	e := sim.New(1)
	sink := NewTraceSink(16)
	for i := 1; i <= DefaultSlowest+20; i++ {
		recordSpan(e, sink, "op", time.Duration(i)*time.Microsecond)
	}
	slow := sink.Slowest(DefaultSlowest * 2)
	if len(slow) != DefaultSlowest {
		t.Fatalf("leaderboard holds %d, want bound %d", len(slow), DefaultSlowest)
	}
	// The smallest survivor must be the (n-DefaultSlowest+1)-th largest.
	if got := slow[len(slow)-1].Duration(); got != 21*time.Microsecond {
		t.Errorf("smallest kept span = %v, want 21µs", got)
	}
}

func TestSpanNesting(t *testing.T) {
	e := sim.New(1)
	sink := NewTraceSink(64)
	disk := sim.NewResource("disk", 1)
	e.Go("op", func(p *sim.Proc) {
		outer := sink.Start(p, "outer")
		inner := sink.Start(p, "inner")
		disk.Use(p, 5*time.Millisecond)
		inner.Finish(p)
		outer.Finish(p)
	})
	e.Run()
	spans := sink.Recent(2)
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	in, out := spans[0], spans[1]
	if in.Name != "inner" || out.Name != "outer" {
		t.Fatalf("span order: got %s,%s", in.Name, out.Name)
	}
	if in.Parent != out.ID {
		t.Errorf("inner.Parent = %d, want outer ID %d", in.Parent, out.ID)
	}
	// The child's disk hold folds into the parent on Finish.
	if got := out.Service(); got != 5*time.Millisecond {
		t.Errorf("outer service = %v, want 5ms folded from inner", got)
	}
	if got := in.Service(); got != 5*time.Millisecond {
		t.Errorf("inner service = %v, want 5ms", got)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var sink *TraceSink
	e := sim.New(1)
	e.Go("op", func(p *sim.Proc) {
		sp := sink.Start(p, "noop")
		sp.SetOp("pool", "pg", 1).Finish(p) // all nil-safe
	})
	e.Run()
	if sink.Total() != 0 || sink.Recent(5) != nil || sink.Slowest(5) != nil || sink.Report(5) != "" {
		t.Fatal("nil sink not inert")
	}
}

func TestSpanString(t *testing.T) {
	e := sim.New(1)
	sink := NewTraceSink(16)
	disk := sim.NewResource("disk", 1)
	e.Go("op", func(p *sim.Proc) {
		sp := sink.Start(p, "rados.write").SetOp("rep", "1.2a", 4096)
		disk.Use(p, time.Millisecond)
		sp.Finish(p)
	})
	e.Run()
	s := sink.Recent(1)[0].String()
	for _, want := range []string{"rados.write", "pool=rep", "pg=1.2a", "bytes=4096", "disk w=0s h=1ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

// TestOpBracket: an op records its count and latency under its family's
// names, its error only where the family counts errors, and its span even
// when the op failed.
func TestOpBracket(t *testing.T) {
	e := sim.New(1)
	reg, sink := NewRegistry(), NewTraceSink(16)
	counted := NewOpStats(reg, "rados_op", "rados.read", true)
	silent := NewOpStats(reg, "dedup_op", "dedup.read", false)
	e.Go("ops", func(p *sim.Proc) {
		for _, st := range []*OpStats{&counted, &silent} {
			op := st.Start(p, sink)
			p.Sleep(2 * time.Millisecond)
			op.Finish(p, errTestOp)
		}
	})
	e.Run()
	for _, name := range []string{"rados_op_total:rados.read", "rados_op_errors_total:rados.read", "dedup_op_total:dedup.read"} {
		if v := reg.Counter(name).Value(); v != 1 {
			t.Errorf("%s = %d, want 1", name, v)
		}
	}
	if strings.Contains(reg.Dump(), "dedup_op_errors") {
		t.Error("a family without an error counter grew one")
	}
	if h := reg.Histogram("dedup_op_latency:dedup.read"); h.Count() != 1 || h.Sum() != 2*time.Millisecond {
		t.Errorf("latency: %d ops summing %v, want 1 of 2ms", h.Count(), h.Sum())
	}
	if recent := sink.Recent(2); len(recent) != 2 || recent[0].Name != "rados.read" || !recent[1].Err {
		t.Errorf("spans %+v, want rados.read then dedup.read, both failed", recent)
	}
}

var errTestOp = errors.New("op failed")
