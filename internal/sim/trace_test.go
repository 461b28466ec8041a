package sim

import (
	"testing"
	"time"
)

// recTracer accumulates per-resource wait and hold durations, and the trace
// ids the reports carried.
type recTracer struct {
	waits  map[string]time.Duration
	holds  map[string]time.Duration
	traces map[uint64]int
}

func newRecTracer() *recTracer {
	return &recTracer{waits: map[string]time.Duration{}, holds: map[string]time.Duration{}, traces: map[uint64]int{}}
}

func (t *recTracer) ResourceWait(r *Resource, trace uint64, s, e Time) {
	t.waits[r.Name()] += (e - s).Duration()
	t.traces[trace]++
}
func (t *recTracer) ResourceHold(r *Resource, trace uint64, s, e Time) {
	t.holds[r.Name()] += (e - s).Duration()
	t.traces[trace]++
}

func TestTracerWaitAndHold(t *testing.T) {
	e := New(1)
	disk := NewResource("disk", 1)
	tr := newRecTracer()
	e.Go("first", func(p *Proc) {
		disk.Use(p, 50*time.Millisecond)
	})
	e.Go("second", func(p *Proc) {
		p.SetTracer(tr, 1)
		disk.Use(p, 30*time.Millisecond)
	})
	if left := e.Run(); left != 0 {
		t.Fatalf("leftover procs: %d", left)
	}
	if got := tr.waits["disk"]; got != 50*time.Millisecond {
		t.Errorf("second proc queue wait = %v, want 50ms", got)
	}
	if got := tr.holds["disk"]; got != 30*time.Millisecond {
		t.Errorf("second proc hold = %v, want 30ms", got)
	}
}

func TestTracerInheritedByChildren(t *testing.T) {
	e := New(1)
	disk := NewResource("disk", 1)
	tr := newRecTracer()
	e.Go("parent", func(p *Proc) {
		p.SetTracer(tr, 7)
		sig := p.Go("child", func(q *Proc) {
			disk.Use(q, 20*time.Millisecond)
		})
		sig.Wait(p)
	})
	if left := e.Run(); left != 0 {
		t.Fatalf("leftover procs: %d", left)
	}
	if got := tr.holds["disk"]; got != 20*time.Millisecond {
		t.Errorf("child hold not attributed to parent tracer: got %v, want 20ms", got)
	}
	if tr.traces[7] != 1 || len(tr.traces) != 1 {
		t.Errorf("reports carried trace ids %v, want the parent's 7 once", tr.traces)
	}
}

func TestLabelRoundTrip(t *testing.T) {
	a, b := Intern("label.test.a"), Intern("label.test.b")
	if a == 0 || a == b || Intern("label.test.a") != a {
		t.Fatalf("Intern gave %d, %d, then %d for the first name again", a, b, Intern("label.test.a"))
	}
	if a.String() != "label.test.a" || b.String() != "label.test.b" || Intern("") != 0 || Label(0).String() != "" {
		t.Errorf("labels read back %q, %q, %q", a, b, Label(0))
	}
}

// TestResourceObserver: the resource observes itself. Three 10ms users of
// one slot queue two deep, hold the slot for all 30ms and wait 10+20ms.
func TestResourceObserver(t *testing.T) {
	e := New(1)
	disk := NewResource("disk", 1)
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			disk.Use(p, 10*time.Millisecond)
		})
	}
	if left := e.Run(); left != 0 {
		t.Fatalf("leftover procs: %d", left)
	}
	end := Time(30 * time.Millisecond)
	if e.Now() != end {
		t.Fatalf("run ended at %v, want 30ms", e.Now())
	}
	held, queued, maxQ := disk.Occupancy(end)
	if maxQ != 2 {
		t.Errorf("max queue = %d, want 2 (three users, one slot)", maxQ)
	}
	if want := int64(30 * time.Millisecond); held != want {
		t.Errorf("occupancy area = %d slot·ns, want %d", held, want)
	}
	if want := int64(30 * time.Millisecond); queued != want {
		t.Errorf("queue area = %d waiter·ns, want %d (10ms + 20ms)", queued, want)
	}
	// Idle after the last release: the areas stop growing.
	if h, q, _ := disk.Occupancy(end + Time(time.Second)); h != held || q != queued || disk.QueueLen() != 0 {
		t.Errorf("areas grew while idle: %d→%d, %d→%d (queue %d)", held, h, queued, q, disk.QueueLen())
	}
}
