package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// dispatchRec is one observed (or predicted) dispatch: the virtual time the
// callback ran and the order in which it was scheduled. Schedule order is the
// engine's seq tiebreak, so sorting records by (at, id) with a stable sort
// reproduces the kernel's contract: time order first, scheduling order among
// equal timestamps.
type dispatchRec struct {
	at Time
	id int
}

// runQueueWorkload schedules an initial batch of callbacks at pseudo-random
// delays; each callback may recursively schedule more, mixing zero delays
// (which must take the same-time FIFO) with future delays (heap). It returns
// the observed dispatch sequence and the model's prediction.
func runQueueWorkload(seed int64, initial, depth int) (got, want []dispatchRec) {
	e := New(seed)
	rng := rand.New(rand.NewSource(seed)) // workload generator, not engine rng
	nextID := 0
	var schedule func(d time.Duration, depth int)
	schedule = func(d time.Duration, depth int) {
		id := nextID
		nextID++
		want = append(want, dispatchRec{at: e.Now() + Time(d), id: id})
		e.After(d, func() {
			got = append(got, dispatchRec{at: e.Now(), id: id})
			if depth <= 0 {
				return
			}
			for n := rng.Intn(3); n > 0; n-- {
				var nd time.Duration
				if rng.Intn(2) == 0 {
					nd = 0 // same virtual instant: exercises the FIFO fast path
				} else {
					nd = time.Duration(1+rng.Intn(100)) * time.Microsecond
				}
				schedule(nd, depth-1)
			}
		})
	}
	for i := 0; i < initial; i++ {
		schedule(time.Duration(rng.Intn(50))*time.Microsecond, depth)
	}
	e.Run()
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	return got, want
}

// TestEventQueueProperty drives random interleavings of future and same-time
// events through the kernel and checks the dispatch contract against a
// reference model: events run in (time, seq) order — nondecreasing virtual
// time, scheduling order among equal timestamps — and the whole sequence is
// reproducible from the seed.
func TestEventQueueProperty(t *testing.T) {
	cases := []struct {
		name           string
		seed           int64
		initial, depth int
	}{
		{"small", 1, 8, 2},
		{"wide", 2, 64, 1},
		{"deep", 3, 4, 6},
		{"mixed", 4, 32, 3},
		{"mixed2", 5, 32, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := runQueueWorkload(tc.seed, tc.initial, tc.depth)
			if len(got) != len(want) {
				t.Fatalf("dispatched %d events, scheduled %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("dispatch %d: got (t=%d id=%d), want (t=%d id=%d)",
						i, got[i].at, got[i].id, want[i].at, want[i].id)
				}
				if i > 0 && got[i].at < got[i-1].at {
					t.Fatalf("dispatch %d: time went backwards (%d after %d)", i, got[i].at, got[i-1].at)
				}
			}
			// Same seed, fresh engine: the full sequence must be identical.
			again, _ := runQueueWorkload(tc.seed, tc.initial, tc.depth)
			for i := range got {
				if again[i] != got[i] {
					t.Fatalf("rerun dispatch %d diverged: got (t=%d id=%d), first run (t=%d id=%d)",
						i, again[i].at, again[i].id, got[i].at, got[i].id)
				}
			}
		})
	}
}

// TestEngineRandPanicsInsideProc: while a process is running, all randomness
// must flow through Proc.Rand; Engine.Rand panics so misuse cannot silently
// perturb the schedule.
func TestEngineRandPanicsInsideProc(t *testing.T) {
	e := New(7)
	_ = e.Rand() // setup time: allowed
	var recovered any
	e.Go("p", func(p *Proc) {
		defer func() { recovered = recover() }()
		e.Rand()
	})
	e.Run()
	if recovered == nil {
		t.Fatal("Engine.Rand inside a running process did not panic")
	}
}

// TestEngineRandAllowedInCallback: After callbacks run on the engine
// goroutine with no current process, so Engine.Rand is their only source and
// must not panic.
func TestEngineRandAllowedInCallback(t *testing.T) {
	e := New(7)
	drew := false
	e.After(time.Millisecond, func() {
		e.Rand().Int63()
		drew = true
	})
	e.Run()
	if !drew {
		t.Fatal("callback did not run")
	}
}

// TestProcRandPanicsWhenNotCurrent: drawing from a parked process's Rand
// would consume engine randomness off-schedule, so it panics.
func TestProcRandPanicsWhenNotCurrent(t *testing.T) {
	e := New(7)
	var parked *Proc
	var recovered any
	e.Go("sleeper", func(p *Proc) {
		p.Rand().Int63() // current process: allowed
		parked = p
		p.Sleep(time.Millisecond)
	})
	e.Go("thief", func(p *Proc) {
		defer func() { recovered = recover() }()
		parked.Rand()
	})
	e.Run()
	if recovered == nil {
		t.Fatal("Proc.Rand from a non-current process did not panic")
	}
}

// sleepStep is one step of a scripted sleeper: Sleep(d), or with until
// SleepUntil(now+d), where a negative d names a time already past.
type sleepStep struct {
	d     time.Duration
	until bool
}

// sleeper is a scripted process: spawned at start (a daemon at 0), it runs
// its steps in order and ends.
type sleeper struct {
	start  Time
	daemon bool
	steps  []sleepStep
}

// resumeRec is one observed (or predicted) resume: process proc came back
// from its step at virtual time at. A callback's record has proc -1.
type resumeRec struct {
	proc, step int
	at         Time
}

// sleepModel is the reference the kernel's sleeps are checked against: a
// naive engine that schedules every wake-up, keeps one pending list, and
// dispatches its (time, seq) minimum, with RunUntil's daemon and limit rules.
// It has no fast path of any kind, so it predicts what a kernel that always
// parks would do, Stats included.
type sleepModel struct {
	now      Time
	seq      uint64
	pending  []modelEvent
	procs    []sleeper
	pc       []int // next step per process; -1 before its first run
	live     int
	ndLive   int // non-daemon processes live
	ndEvents int // non-daemon events pending
	finished int
	stats    Stats
	got      []resumeRec
}

type modelEvent struct {
	at       Time
	seq      uint64
	proc     int // -1: a callback
	daemon   bool
	fromFIFO bool // scheduled at the instant it was due: the kernel's FIFO
}

func (m *sleepModel) schedule(at Time, proc int, daemon bool) {
	at = max(at, m.now)
	m.seq++
	m.stats.EventsScheduled++
	if !daemon {
		m.ndEvents++
	}
	ev := modelEvent{at: at, seq: m.seq, proc: proc, daemon: daemon, fromFIFO: at == m.now}
	m.pending = append(m.pending, ev)
	n := 0
	for _, p := range m.pending {
		if p.fromFIFO == ev.fromFIFO {
			n++
		}
	}
	if ev.fromFIFO {
		m.stats.PeakFIFO = max(m.stats.PeakFIFO, n)
	} else {
		m.stats.PeakHeap = max(m.stats.PeakHeap, n)
	}
}

func (m *sleepModel) runUntil(limit Time) int {
	for len(m.pending) > 0 && (m.ndLive > 0 || m.ndEvents > 0) {
		best := 0
		for i, ev := range m.pending {
			if ev.at < m.pending[best].at || ev.at == m.pending[best].at && ev.seq < m.pending[best].seq {
				best = i
			}
		}
		ev := m.pending[best]
		if ev.at > limit {
			break
		}
		m.pending = append(m.pending[:best], m.pending[best+1:]...)
		m.stats.EventsDispatched++
		if ev.fromFIFO {
			m.stats.FastPath++
		}
		if !ev.daemon {
			m.ndEvents--
		}
		m.now = max(m.now, ev.at)
		if ev.proc < 0 {
			m.got = append(m.got, resumeRec{proc: -1, at: m.now})
			continue
		}
		i, sc := ev.proc, m.procs[ev.proc]
		if m.pc[i] >= 0 {
			m.got = append(m.got, resumeRec{proc: i, step: m.pc[i], at: m.now})
		}
		m.pc[i]++
		if m.pc[i] == len(sc.steps) {
			m.live--
			if !sc.daemon {
				m.ndLive--
			}
			m.finished++
			continue
		}
		st := sc.steps[m.pc[i]]
		wake := m.now + Time(max(st.d, 0))
		if st.until {
			wake = m.now + Time(st.d)
		}
		m.schedule(wake, i, sc.daemon)
	}
	if m.now < limit && limit < Time(1<<62-1) {
		m.now = limit
	}
	return m.live
}

// snapshot is the model's Stats: every process spawned fresh, finished ones
// pooled.
func (m *sleepModel) snapshot() Stats {
	s := m.stats
	s.ProcsSpawned = int64(len(m.procs))
	s.ProcsLive = m.live
	s.ProcsPooled = m.finished
	return s
}

// genSleepers draws n scripted sleepers: about one in four a daemon, zero
// and positive sleeps from a small set so that wake-ups tie, and SleepUntil
// steps, some naming a time already past.
func genSleepers(rng *rand.Rand, n int) []sleeper {
	ds := []time.Duration{0, 0, time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond, 13 * time.Microsecond}
	out := make([]sleeper, n)
	for i := range out {
		sc := sleeper{daemon: rng.Intn(4) == 0}
		if !sc.daemon {
			sc.start = Time(rng.Intn(3)) * Time(time.Microsecond)
		}
		for k := 1 + rng.Intn(12); k > 0; k-- {
			st := sleepStep{d: ds[rng.Intn(len(ds))], until: rng.Intn(3) == 0}
			if st.until && rng.Intn(4) == 0 {
				st.d = -st.d - time.Microsecond
			}
			sc.steps = append(sc.steps, st)
		}
		out[i] = sc
	}
	return out
}

// TestSleepMatchesModel runs scripted sleepers, a few callbacks among them,
// through the kernel in RunUntil slices and then Run, and checks after every
// slice that resume order, resume times, the clock, the live count, the
// sequence counter and Stats match the always-parking reference model: a
// sleep that continues in place must be indistinguishable from one that
// parks.
func TestSleepMatchesModel(t *testing.T) {
	continued, sleeps := int64(0), 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		procs := genSleepers(rng, 1+rng.Intn(6))
		e := New(seed)
		m := &sleepModel{procs: procs, pc: make([]int, len(procs))}
		var got []resumeRec
		for i, sc := range procs {
			body := func(p *Proc) {
				for k, st := range sc.steps {
					if st.until {
						p.SleepUntil(p.Now() + Time(st.d))
					} else {
						p.Sleep(st.d)
					}
					got = append(got, resumeRec{proc: i, step: k, at: p.Now()})
				}
			}
			if sc.daemon {
				e.GoDaemon("daemon", body)
			} else {
				e.GoAt(sc.start, "sleeper", body)
			}
			m.pc[i] = -1
			m.live++
			if !sc.daemon {
				m.ndLive++
			}
			m.schedule(sc.start, i, sc.daemon)
			sleeps += len(sc.steps)
		}
		for k := rng.Intn(3); k > 0; k-- {
			at := Time(rng.Intn(30)) * Time(time.Microsecond)
			e.After(at.Duration(), func() { got = append(got, resumeRec{proc: -1, at: e.Now()}) })
			m.schedule(at, -1, false)
		}
		var limits []Time
		for at := Time(0); ; {
			at += Time(rng.Intn(20)) * Time(time.Microsecond)
			if at > 60*Time(time.Microsecond) {
				break
			}
			limits = append(limits, at)
		}
		limits = append(limits, Time(1<<62-1))
		for _, limit := range limits {
			live := e.RunUntil(limit)
			wantLive := m.runUntil(limit)
			if len(got) != len(m.got) {
				t.Fatalf("seed %d limit %v: %d resumes, model %d", seed, limit, len(got), len(m.got))
			}
			for i := range got {
				if got[i] != m.got[i] {
					t.Fatalf("seed %d limit %v: resume %d is %+v, model %+v", seed, limit, i, got[i], m.got[i])
				}
			}
			if live != wantLive || e.Now() != m.now || e.seq != m.seq {
				t.Fatalf("seed %d limit %v: live %d at %v after seq %d, model %d at %v after seq %d",
					seed, limit, live, e.Now(), e.seq, wantLive, m.now, m.seq)
			}
			if s, ws := e.Stats(), m.snapshot(); s != ws {
				t.Fatalf("seed %d limit %v: stats\n%+v\nmodel\n%+v", seed, limit, s, ws)
			}
		}
		continued += e.continued
	}
	// Both paths ran: some sleeps continued in place, and some parked.
	if continued == 0 || continued >= int64(sleeps) {
		t.Fatalf("%d of %d sleeps continued in place; the workload does not exercise both paths", continued, sleeps)
	}
}
