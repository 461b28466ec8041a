package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestPoint(t *testing.T) {
	e := New(1)
	at := Intern("sim.test.point")
	e.Go("main", func(p *Proc) {
		before := e.Stats().EventsScheduled
		if p.Point(at, "kill") {
			t.Error("a point with no handler ended the operation")
		}
		if got := e.Stats().EventsScheduled; got != before {
			t.Errorf("a point with no handler scheduled %d events", got-before)
		}

		var seen []string
		e.SetPoints(func(q *Proc, l Label, key string) bool {
			seen = append(seen, fmt.Sprint(q.Name(), " ", l, " ", key))
			if key == "slow" {
				q.Sleep(time.Second)
			}
			return key == "kill"
		})
		if !p.Point(at, "kill") {
			t.Error("the handler's kill did not reach the caller")
		}
		var slowAt, fastAt Time
		reach := func(end *Time) func(q *Proc) {
			return func(q *Proc) {
				if q.Point(at, q.Name()) {
					t.Errorf("%s was killed", q.Name())
				}
				q.Sleep(time.Millisecond)
				*end = q.Now()
			}
		}
		WaitAll(p, p.Go("slow", reach(&slowAt)), p.Go("fast", reach(&fastAt)))
		if slowAt != Time(time.Second+time.Millisecond) || fastAt != Time(time.Millisecond) {
			t.Errorf("slow ended at %v, fast at %v; want 1.001s and 1ms: a handler's Sleep delays only its caller", slowAt, fastAt)
		}
		want := []string{"main sim.test.point kill", "slow sim.test.point slow", "fast sim.test.point fast"}
		if !slices.Equal(seen, want) {
			t.Errorf("handler saw %q, want %q", seen, want)
		}

		e.SetPoints(nil)
		before = e.Stats().EventsScheduled
		if p.Point(at, "kill") || len(seen) != len(want) {
			t.Error("SetPoints(nil) left the handler in place")
		}
		if got := e.Stats().EventsScheduled; got != before {
			t.Errorf("a point with the handler removed scheduled %d events", got-before)
		}
	})
	if live := e.Run(); live != 0 {
		t.Fatalf("%d processes blocked", live)
	}
}
