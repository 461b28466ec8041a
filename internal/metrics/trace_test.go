package metrics

import (
	"errors"
	"fmt"
	"reflect"
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
		sp.SetOp(sim.Intern("pool"), sim.Intern("pg"), 1).Finish(p) // all nil-safe
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
		sp := sink.Start(p, "rados.write").SetOp(sim.Intern("rep"), sim.Intern("1.2a"), 4096)
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

// TestLateChildFoldsNowhere: a process spawned inside a span can outlive
// it. The span it then starts is a root, and neither it nor the process's
// resource use lands in another span — whether the parent's object still
// waits in the pool or already serves a new op.
func TestLateChildFoldsNowhere(t *testing.T) {
	for _, reused := range []bool{false, true} {
		e := sim.New(1)
		sink := NewTraceSink(16)
		disk, nic := sim.NewResource("disk", 1), sim.NewResource("nic", 1)
		e.Go("op", func(p *sim.Proc) {
			parent := sink.Start(p, "parent")
			p.Go("late", func(q *sim.Proc) {
				nic.Use(q, time.Millisecond) // still under the parent's tracer
				child := sink.Start(q, "child")
				disk.Use(q, 5*time.Millisecond)
				child.Finish(q)
			})
			parent.Finish(p)
			if reused { // takes the parent's object, and is open when the child runs
				other := sink.Start(p, "other")
				p.Sleep(10 * time.Millisecond)
				other.Finish(p)
			}
		})
		e.Run()
		for _, sp := range sink.Recent(3) {
			want := time.Duration(0)
			if sp.Name == "child" {
				want = 5 * time.Millisecond
				if sp.Parent != 0 {
					t.Errorf("reused=%v: late child recorded under parent %d, want a root", reused, sp.Parent)
				}
			}
			if got := sp.Service(); got != want {
				t.Errorf("reused=%v: %s service = %v, want %v", reused, sp.Name, got, want)
			}
		}
	}
}

// TestTraceReadSide fixes a span tree and reads it back through Recent,
// Slowest, Total and Report. Eighty fillers wrap the ring and the entry
// ring and overflow the leaderboard; a scan over forty resources outgrows
// the entry ring; then a write fans out to two replica legs (one queues for
// the disk the other holds), journals with an error, and leaves a late child
// behind.
func TestTraceReadSide(t *testing.T) {
	e := sim.New(1)
	sink := NewTraceSink(16)
	disk, nic, cpu := sim.NewResource("disk", 1), sim.NewResource("nic", 1), sim.NewResource("cpu", 2)
	meta, rep, pg, gold, client := sim.Intern("meta"), sim.Intern("rep"), sim.Intern("1.2a"), sim.Intern("gold"), sim.Intern("client")
	e.Go("driver", func(p *sim.Proc) {
		for i := 1; i <= 80; i++ {
			sp := sink.Start(p, "filler")
			cpu.Use(p, time.Duration(i)*time.Microsecond)
			sp.Finish(p)
		}
		scan := sink.Start(p, "dedup.scrub").SetClass(sim.Intern("scrub"))
		for j := range 40 {
			sim.NewResource(fmt.Sprintf("osd.%d", j), 1).Use(p, time.Microsecond)
		}
		scan.Finish(p)

		root := sink.Start(p, "dedup.write").SetOp(meta, 0, 8192).SetTenant(gold).SetClass(client)
		leg := func(first, second *sim.Resource, d time.Duration) func(q *sim.Proc) {
			return func(q *sim.Proc) {
				sp := sink.Start(q, "rados.replica").SetOp(rep, pg, 4096).SetClass(client)
				first.Use(q, d)
				second.Use(q, time.Millisecond)
				sp.Finish(q)
			}
		}
		a, b := p.Go("leg", leg(disk, nic, 3*time.Millisecond)), p.Go("leg", leg(disk, cpu, 2*time.Millisecond))
		p.Go("late", func(q *sim.Proc) {
			q.Sleep(10 * time.Millisecond)
			sp := sink.Start(q, "late")
			disk.Use(q, time.Millisecond)
			sp.Finish(q)
		})
		a.Wait(p)
		b.Wait(p)
		journal := sink.Start(p, "rados.journal").SetOp(rep, pg, 4096).SetClass(client)
		nic.Use(p, 2*time.Millisecond)
		journal.SetErr(errTestOp)
		journal.Finish(p)
		root.Finish(p)
	})
	e.Run()

	us, ms := sim.Time(time.Microsecond), sim.Time(time.Millisecond)
	filler := func(i int) Span {
		start := sim.Time(i*(i-1)/2) * us
		return Span{ID: uint64(i), Name: "filler", Start: start, End: start + sim.Time(i)*us,
			Resources: []ResourceSpan{{"cpu", 0, time.Duration(i) * time.Microsecond}}}
	}
	scan := Span{ID: 81, Name: "dedup.scrub", Class: "scrub", Start: 3240 * us, End: 3280 * us}
	for j := range 40 {
		scan.Resources = append(scan.Resources, ResourceSpan{fmt.Sprintf("osd.%d", j), 0, time.Microsecond})
	}
	t0 := 3280 * us
	root := Span{ID: 82, Name: "dedup.write", Class: "client", Tenant: "gold", Pool: "meta", Bytes: 8192, Start: t0, End: t0 + 8*ms,
		Resources: []ResourceSpan{{"disk", 3 * time.Millisecond, 5 * time.Millisecond}, {"nic", 0, 3 * time.Millisecond}, {"cpu", 0, time.Millisecond}}}
	legA := Span{ID: 83, Parent: 82, Name: "rados.replica", Class: "client", Pool: "rep", PG: "1.2a", Bytes: 4096, Start: t0, End: t0 + 4*ms,
		Resources: []ResourceSpan{{"disk", 0, 3 * time.Millisecond}, {"nic", 0, time.Millisecond}}}
	legB := legA
	legB.ID, legB.End = 84, t0+6*ms
	legB.Resources = []ResourceSpan{{"disk", 3 * time.Millisecond, 2 * time.Millisecond}, {"cpu", 0, time.Millisecond}}
	journal := Span{ID: 85, Parent: 82, Name: "rados.journal", Class: "client", Pool: "rep", PG: "1.2a", Bytes: 4096, Err: true,
		Start: t0 + 6*ms, End: t0 + 8*ms, Resources: []ResourceSpan{{"nic", 0, 2 * time.Millisecond}}}
	late := Span{ID: 86, Name: "late", Start: t0 + 10*ms, End: t0 + 11*ms, Resources: []ResourceSpan{{"disk", 0, time.Millisecond}}}

	if got := sink.Total(); got != 86 {
		t.Fatalf("Total = %d, want 86", got)
	}
	var recent []Span
	for i := 75; i <= 80; i++ {
		recent = append(recent, filler(i))
	}
	recent = append(recent, scan, legA, legB, journal, root, late)
	checkSpans(t, "Recent", sink.Recent(len(recent)), recent)
	checkSpans(t, "Recent(all)", sink.Recent(100)[:4], []Span{filler(71), filler(72), filler(73), filler(74)})
	checkSpans(t, "Slowest", sink.Slowest(7), []Span{root, legB, legA, journal, late, filler(80), filler(79)})
	if slow := sink.Slowest(100); len(slow) != DefaultSlowest {
		t.Errorf("leaderboard holds %d, want %d", len(slow), DefaultSlowest)
	} else {
		// 80 fillers, then six longer spans evicted fillers 17–22.
		checkSpans(t, "Slowest tail", slow[len(slow)-1:], []Span{filler(23)})
	}
	want := "slowest 2 of 86 spans (queue-wait vs service):\n" +
		"  8ms          dedup.write      class=client tenant=gold pool=meta bytes=8192 wait=3ms service=9ms [disk w=3ms h=5ms, nic w=0s h=3ms, cpu w=0s h=1ms]\n" +
		"  6ms          rados.replica    class=client pool=rep pg=1.2a bytes=4096 wait=3ms service=3ms [disk w=3ms h=2ms, cpu w=0s h=1ms]\n"
	if got := sink.Report(2); got != want {
		t.Errorf("Report:\n%s\nwant:\n%s", got, want)
	}
}

// checkSpans compares spans field by field.
func checkSpans(t *testing.T, what string, got, want []Span) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d spans, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := got[i], want[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s[%d]:\n got %+v\nwant %+v", what, i, g, w)
		}
	}
}
