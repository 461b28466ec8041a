// iter.Pull needs Go 1.23; go.mod stays at 1.22 because bench/go.mod, which
// requires this module, says 1.22. The line states a toolchain floor for this
// file — there is no other implementation for it to select.
//
//go:build go1.23

// Package sim provides a deterministic discrete-event simulation (DES)
// kernel. Every timing-sensitive component in this repository — OSD disks,
// network links, client think time, background deduplication threads — runs
// as a sim.Proc on a shared virtual clock, so experiments are exactly
// reproducible across runs and machines.
//
// The kernel uses coroutine-based processes: each Proc is a runtime
// coroutine (iter.Pull) that runs exclusively (one at a time), yielding to
// the engine whenever it waits on the virtual clock or a synchronization
// primitive. The engine resumes a process by calling its coroutine's next
// function — a direct switch on the calling thread, with no channel
// operation and no pass through the Go scheduler — in (time, sequence)
// order, which makes every run deterministic for a fixed seed and program.
//
// The event queue is split in two: a concrete-typed 4-ary min-heap for
// future events and a FIFO for events scheduled at the current timestamp.
// Because the sequence number is globally monotonic and the clock never goes
// backwards, the FIFO is always sorted by (time, seq), so dispatching the
// smaller of the heap top and the FIFO front preserves the exact global
// (time, seq) order while letting the common same-time wakeups (signal
// fires, resource handoffs, zero sleeps) skip the heap entirely. Finished
// process coroutines park on a free list and are reused by later spawns, so
// steady-state spawning allocates nothing.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// Time is a virtual timestamp: nanoseconds since the start of the simulation.
type Time int64

// Duration converts a virtual timestamp to a time.Duration since sim start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the timestamp in seconds since sim start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled wakeup. Events with fn != nil are callback events;
// otherwise proc is resumed.
type event struct {
	at     Time
	seq    uint64
	proc   *Proc
	fn     func()
	daemon bool
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). Events are
// stored by value in one slice: pushing never boxes and steady-state
// operation never allocates. The 4-ary shape halves the tree depth of a
// binary heap, trading slightly more comparisons per level for fewer cache
// misses on the long sift-downs a deep queue produces.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(ev event) {
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&h.a[i], &h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	a := h.a
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a[last] = event{} // release fn/proc references
	h.a = a[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *eventHeap) siftDown(i int) {
	a := h.a
	n := len(a)
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(&a[c], &a[best]) {
				best = c
			}
		}
		if !eventLess(&a[best], &a[i]) {
			return
		}
		a[i], a[best] = a[best], a[i]
		i = best
	}
}

// eventFIFO holds events scheduled at the current timestamp. Appends happen
// at nondecreasing clock values with globally increasing sequence numbers,
// so the FIFO is sorted by (at, seq) by construction and the front is always
// its minimum.
type eventFIFO struct {
	a    []event
	head int
}

func (f *eventFIFO) len() int { return len(f.a) - f.head }

func (f *eventFIFO) push(ev event) { f.a = append(f.a, ev) }

func (f *eventFIFO) front() *event { return &f.a[f.head] }

func (f *eventFIFO) pop() event {
	ev := f.a[f.head]
	f.a[f.head] = event{} // release fn/proc references
	f.head++
	if f.head == len(f.a) {
		f.a = f.a[:0]
		f.head = 0
	}
	return ev
}

// Stats is a snapshot of the engine's execution counters. All values are
// deterministic for a fixed seed and program, so they can appear in golden
// outputs as a kernel-cost measure.
type Stats struct {
	EventsScheduled  int64 // total events ever scheduled
	EventsDispatched int64 // events dispatched (callbacks run or procs resumed)
	FastPath         int64 // dispatches served from the same-time FIFO, no heap round-trip
	PeakHeap         int   // high-water mark of the future-event heap
	PeakFIFO         int   // high-water mark of the same-time FIFO
	ProcsSpawned     int64 // process starts that created a new coroutine
	ProcsReused      int64 // process starts served from the free pool
	ProcsLive        int   // processes spawned and not yet finished
	ProcsPooled      int   // finished coroutines parked for reuse
}

// procPoolCap bounds the free list of finished process coroutines kept for
// reuse. Beyond the cap a finishing coroutine exits instead of parking.
const procPoolCap = 256

// Engine owns the virtual clock and the event queue. Create one with New,
// spawn processes with Go, then call Run.
//
// Engine is not safe for concurrent use: only the goroutine inside Run and
// the single currently-running Proc may touch it, which is exactly the DES
// execution model. Successive Run calls may come from different goroutines
// as long as they do not overlap.
type Engine struct {
	now        Time
	seq        uint64
	heap       eventHeap
	fifo       eventFIFO
	rng        *rand.Rand
	cur        *Proc // currently executing process (nil in engine/callback context)
	live       int   // processes spawned and not yet finished
	running    bool
	inCallback bool // an engine callback (After/FireAt) is executing

	freeProcs []*Proc
	coros     []*Proc // every process whose coroutine has not ended, for Close
	stats     Stats

	// Daemon bookkeeping: daemon processes (background pollers) do not keep
	// the simulation alive. Run returns once no non-daemon work remains.
	nonDaemonLive   int
	nonDaemonEvents int
}

// New returns an empty engine whose randomness is derived from seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It may be used
// during setup (before Run) and from engine callbacks; while the simulation
// is running, processes must draw through Proc.Rand so every consumption is
// attributable to the deterministic schedule. Calling it from a running
// process panics — silent misuse is how nondeterminism sneaks in.
func (e *Engine) Rand() *rand.Rand {
	if e.running && !e.inCallback {
		panic("sim: Engine.Rand called while the simulation is running; use Proc.Rand from process context")
	}
	return e.rng
}

// Stats returns a snapshot of the engine's execution counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.ProcsLive = e.live
	s.ProcsPooled = len(e.freeProcs)
	return s
}

func (e *Engine) schedule(at Time, p *Proc, fn func()) {
	if at < e.now {
		at = e.now
	}
	daemon := false
	switch {
	case p != nil:
		daemon = p.daemon
	case e.cur != nil:
		daemon = e.cur.daemon
	}
	if !daemon {
		e.nonDaemonEvents++
	}
	e.seq++
	e.stats.EventsScheduled++
	ev := event{at: at, seq: e.seq, proc: p, fn: fn, daemon: daemon}
	if at == e.now {
		e.fifo.push(ev)
		if n := e.fifo.len(); n > e.stats.PeakFIFO {
			e.stats.PeakFIFO = n
		}
		return
	}
	e.heap.push(ev)
	if n := e.heap.len(); n > e.stats.PeakHeap {
		e.stats.PeakHeap = n
	}
}

// After schedules fn to run as a callback at now+d. The callback runs on the
// engine goroutine and must not park; use Go for anything that waits.
func (e *Engine) After(d time.Duration, fn func()) {
	e.schedule(e.now+Time(d), nil, fn)
}

// Tracer receives queue-wait and service-time reports from the FIFO
// resources a process passes through. A tracer attached to a process is
// inherited by child processes spawned with Go/GoAt, so a fan-out operation
// (replicated write, parallel chunk flush) accumulates onto one trace span
// unless a child installs its own.
//
// A tracer is installed under a trace id, and every report carries the id
// the reporting process holds. A child can outlive the trace it inherited,
// and a tracer reused for a later trace tells such a stale report by its id.
type Tracer interface {
	// ResourceWait reports time spent queued for a slot of r.
	ResourceWait(r *Resource, trace uint64, start, end Time)
	// ResourceHold reports time spent holding a slot of r in Use (the
	// station's service time).
	ResourceHold(r *Resource, trace uint64, start, end Time)
}

// Proc is a simulated process. All waiting primitives take the Proc so that
// the kernel can park and resume the right coroutine.
type Proc struct {
	e      *Engine
	name   string
	next   func() (struct{}, bool) // engine side: run the process until it yields or ends
	stop   func()                  // engine side: end the coroutine (Close)
	yield  func(struct{}) bool     // process side: hand control back to the engine
	coro   int                     // index in e.coros
	done   *Signal
	fn     func(p *Proc)
	daemon bool
	tracer Tracer
	trace  uint64 // the id tracer was installed under
}

// SetTracer installs (or with nil, removes) the process's tracer under trace
// id trace and returns the previous pair, so callers can scope a span and
// restore the parent.
func (p *Proc) SetTracer(t Tracer, trace uint64) (Tracer, uint64) {
	prev, prevTrace := p.tracer, p.trace
	p.tracer, p.trace = t, trace
	return prev, prevTrace
}

// Tracer returns the process's current tracer (nil if none) and the trace id
// it was installed under.
func (p *Proc) Tracer() (Tracer, uint64) { return p.tracer, p.trace }

// TraceWait reports to the process's tracer, if any, that it queued for a
// slot of r from start until now.
func (p *Proc) TraceWait(r *Resource, start Time) {
	if p.tracer != nil {
		p.tracer.ResourceWait(r, p.trace, start, p.Now())
	}
}

// TraceHold reports to the process's tracer, if any, that it held a slot of
// r from start until now.
func (p *Proc) TraceHold(r *Resource, start Time) {
	if p.tracer != nil {
		p.tracer.ResourceHold(r, p.trace, start, p.Now())
	}
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Rand returns the engine's deterministic random source. Only the currently
// running process may draw from it; calling Rand on a parked or finished
// process panics, because an off-schedule draw would silently perturb every
// later random decision in the run.
func (p *Proc) Rand() *rand.Rand {
	if p.e.cur != p {
		panic("sim: Proc.Rand called outside the running process")
	}
	return p.e.rng
}

// Go spawns fn as a new process starting at the current virtual time and
// returns a Signal fired when it finishes. A process spawned from within a
// daemon inherits daemon status (a daemon's helper work should not keep the
// simulation alive either).
func (e *Engine) Go(name string, fn func(p *Proc)) *Signal {
	return e.goAt(e.now, name, fn, e.cur != nil && e.cur.daemon)
}

// GoDaemon spawns a daemon process: a background service (poller, scrubber,
// dedup worker) that runs while foreground work exists but does not prevent
// Run from returning once all non-daemon processes and events are done.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Signal {
	return e.goAt(e.now, name, fn, true)
}

// GoAt spawns fn as a new process that starts at virtual time at.
func (e *Engine) GoAt(at Time, name string, fn func(p *Proc)) *Signal {
	return e.goAt(at, name, fn, e.cur != nil && e.cur.daemon)
}

// GoForeground spawns fn as a non-daemon process even when the spawner is a
// daemon. A background service (heartbeat monitor, fault injector) uses it
// for work that must complete before Run returns — e.g. the recovery a
// failure detector triggers — without the service itself keeping the
// simulation alive between ticks.
func (e *Engine) GoForeground(name string, fn func(p *Proc)) *Signal {
	return e.goAt(e.now, name, fn, false)
}

func (e *Engine) goAt(at Time, name string, fn func(p *Proc), daemon bool) *Signal {
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		p = e.freeProcs[n-1]
		e.freeProcs[n-1] = nil
		e.freeProcs = e.freeProcs[:n-1]
		p.name = name
		p.daemon = daemon
		p.tracer, p.trace = nil, 0
		p.done = NewSignal() // callers may still hold the previous run's signal
		p.fn = fn
		e.stats.ProcsReused++
	} else {
		p = &Proc{e: e, name: name, done: NewSignal(), daemon: daemon, fn: fn, coro: len(e.coros)}
		e.stats.ProcsSpawned++
		p.next, p.stop = iter.Pull(p.loop)
		e.coros = append(e.coros, p)
	}
	if e.cur != nil {
		p.tracer, p.trace = e.cur.tracer, e.cur.trace // children report into the spawner's span
	}
	e.live++
	if !daemon {
		e.nonDaemonLive++
	}
	e.schedule(at, p, nil)
	return p.done
}

// loop is the body of a process coroutine: run the current fn, do the
// finish bookkeeping, park on the free list (if there is room) and yield
// until reincarnated as a later spawn. The engine is inside next for the
// whole bookkeeping section, and a reused Proc's fields are rewritten
// strictly before the next call that resumes the coroutine, so the handoff
// is race-free. A coroutine ends when its process returns with the pool
// full, or when Close stops it.
func (p *Proc) loop(yield func(struct{}) bool) {
	e := p.e
	p.yield = yield
	for {
		fn := p.fn
		p.fn = nil
		fn(p)
		e.live--
		if !p.daemon {
			e.nonDaemonLive--
		}
		p.done.fire(e)
		recycle := len(e.freeProcs) < procPoolCap
		if recycle {
			e.freeProcs = append(e.freeProcs, p)
		}
		if !recycle {
			last := e.coros[len(e.coros)-1]
			last.coro, e.coros[p.coro] = p.coro, last
			e.coros = e.coros[:len(e.coros)-1]
			return // ends the coroutine, which returns control to the engine
		}
		if !yield(struct{}{}) { // return control to the engine
			return // stopped by Close while pooled
		}
	}
}

// Go spawns a child process at the current time (convenience for procs).
func (p *Proc) Go(name string, fn func(p *Proc)) *Signal {
	return p.e.Go(name, fn)
}

// park transfers control back to the engine and blocks until resumed. A
// process parked when Close stops its coroutine unwinds from here, running
// its deferred calls.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// procStopped is the panic that unwinds a parked process stopped by Close.
type procStopped struct{}

// Close ends every coroutine the engine still holds — processes parked on
// the clock or on a primitive, daemons, spawned processes that never ran,
// and the reuse pool — running the deferred calls of those that were
// parked. Without it each of them stays a blocked goroutine that keeps the
// engine's whole world reachable. Call it outside Run, once nothing more
// will be read from the simulation; the engine must not be used again.
func (e *Engine) Close() {
	if e.running {
		panic("sim: Close during Run")
	}
	// A process whose deferred calls swallow the stop and return recycles
	// into the emptied pool instead of removing itself from e.coros.
	e.freeProcs = nil
	for len(e.coros) > 0 {
		p := e.coros[len(e.coros)-1]
		e.coros = e.coros[:len(e.coros)-1]
		p.end()
	}
	e.freeProcs = nil
	e.heap, e.fifo = eventHeap{}, eventFIFO{}
}

// end stops p's coroutine; the procStopped panic that unwound it surfaces
// here and ends with it. Any other panic from its deferred calls propagates.
func (p *Proc) end() {
	defer func() {
		if r := recover(); r != nil && r != (procStopped{}) {
			panic(r)
		}
	}()
	p.stop()
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.now+Time(d), p, nil)
	p.park()
}

// SleepUntil parks the process until virtual time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	p.e.schedule(t, p, nil)
	p.park()
}

// Run processes events until no non-daemon work remains (all non-daemon
// processes finished and their events drained) or the queue empties. It
// returns the number of processes still live (daemons waiting for the next
// Run, or non-daemons blocked on primitives — the latter usually indicates
// a deadlock).
func (e *Engine) Run() int { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil processes events with at <= limit. Events beyond the limit stay
// queued, so RunUntil may be called repeatedly with growing limits.
//
// A process runs on the caller's thread of control: a panic inside one
// unwinds through RunUntil into the caller (the process stays live and never
// runs again), and runtime.Goexit inside one — what t.Fatal does — ends the
// goroutine that called RunUntil, running its deferred calls.
func (e *Engine) RunUntil(limit Time) int {
	if e.running {
		panic("sim: nested Run")
	}
	e.running = true
	defer func() { e.running, e.cur = false, nil }()
	for {
		hasF := e.fifo.len() > 0
		hasH := e.heap.len() > 0
		if !hasF && !hasH {
			break
		}
		if e.nonDaemonLive == 0 && e.nonDaemonEvents == 0 {
			break // only daemon work remains; it parks until the next Run
		}
		// Dispatch the global (at, seq) minimum of the two queues.
		fromFIFO := hasF && (!hasH || eventLess(e.fifo.front(), &e.heap.a[0]))
		var at Time
		if fromFIFO {
			at = e.fifo.front().at
		} else {
			at = e.heap.a[0].at
		}
		if at > limit {
			break
		}
		var ev event
		if fromFIFO {
			ev = e.fifo.pop()
			e.stats.FastPath++
		} else {
			ev = e.heap.pop()
		}
		e.stats.EventsDispatched++
		if !ev.daemon {
			e.nonDaemonEvents--
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		if ev.fn != nil {
			e.inCallback = true
			ev.fn()
			e.inCallback = false
			continue
		}
		e.cur = ev.proc
		ev.proc.next()
		e.cur = nil
	}
	if e.now < limit && limit < Time(1<<62-1) {
		e.now = limit
	}
	return e.live
}

// ---------------------------------------------------------------------------
// Signal: a one-shot broadcast event.

// Signal is a one-shot event: processes Wait on it and are all released when
// it is Fired. Waiting on an already-fired signal returns immediately.
type Signal struct {
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

func (s *Signal) fire(e *Engine) {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		e.schedule(e.now, w, nil)
	}
	s.waiters = nil
}

// Fire releases all waiters at the current virtual time. Firing twice is a
// no-op.
func (s *Signal) Fire(p *Proc) { s.fire(p.e) }

// FireAt schedules the signal to fire at virtual time t (engine callback).
func (s *Signal) FireAt(e *Engine, t Time) {
	e.schedule(t, nil, func() { s.fire(e) })
}

// Wait parks p until the signal fires.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// WaitAll parks p until every signal has fired.
func WaitAll(p *Proc, sigs ...*Signal) {
	for _, s := range sigs {
		s.Wait(p)
	}
}

// ---------------------------------------------------------------------------
// Loop: a periodic background service.

// Loop is a background service that repeats one tick while it runs. Its
// daemon process sleeps First, then ticks; a tick that reports more work
// (busy) is followed at once by the next, any other by a sleep of Every.
//
// A Stop is seen at the top of the next iteration — at the wake-up after a
// sleep, or right after a busy tick — and never interrupts a tick. A Start
// before then cancels it, so any sequence of Starts and Stops leaves at most
// one process, and exactly one after a Start. Exit, if set, runs once as the
// process ends, before its done signal fires.
type Loop struct {
	Name  string
	First time.Duration // sleep before the first tick
	Every time.Duration // sleep after a tick that is not busy
	Tick  func(p *Proc) (busy bool)
	Exit  func()

	live, stopping bool
	done           *Signal
}

// Start spawns the loop's daemon process on e, or, when one is live, cancels
// any stop it has not yet seen. It returns the live process's done signal.
func (l *Loop) Start(e *Engine) *Signal {
	l.stopping = false
	if !l.live {
		l.live = true
		l.done = e.GoDaemon(l.Name, l.run)
	}
	return l.done
}

// Stop asks the live process to exit at the top of its next iteration and
// returns its done signal; nil when no process is live.
func (l *Loop) Stop() *Signal {
	if !l.live {
		return nil
	}
	l.stopping = true
	return l.done
}

// Running reports whether the loop's process is live, including a stopped
// one that has not yet seen its stop.
func (l *Loop) Running() bool { return l.live }

func (l *Loop) run(p *Proc) {
	if l.First > 0 {
		p.Sleep(l.First)
	}
	for !l.stopping {
		if !l.Tick(p) {
			p.Sleep(l.Every)
		}
	}
	l.live, l.stopping = false, false
	if l.Exit != nil {
		l.Exit()
	}
}

// ---------------------------------------------------------------------------
// Cond: a reusable condition variable.

// Cond is a reusable wait/notify point, the DES analogue of sync.Cond:
// processes park on Wait and are released FIFO by Signal (one) or Broadcast
// (all). Unlike Signal it never latches, so it suits recurring conditions
// ("queue depth dropped below the cap") where waiters must re-check their
// predicate in a loop:
//
//	for !ready() {
//		cond.Wait(p)
//	}
//
// The re-check matters: between a Signal and the woken process actually
// running, another process may consume the condition.
type Cond struct {
	waiters []*Proc
}

// NewCond returns a condition with no waiters.
func NewCond() *Cond { return &Cond{} }

// Wait parks p until a Signal or Broadcast releases it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal(p *Proc) {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	p.e.schedule(p.Now(), w, nil)
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast(p *Proc) {
	for _, w := range c.waiters {
		p.e.schedule(p.Now(), w, nil)
	}
	c.waiters = nil
}

// ---------------------------------------------------------------------------
// Resource: a FIFO server pool (disk, NIC, CPU core set).

// Resource models a station with fixed concurrency: at most Cap holders at a
// time, FIFO granting order. It is the building block for disk queues, NIC
// serialization and CPU cores. It measures itself: every state change
// integrates occupancy and queue length up to that instant, so Occupancy's
// time averages are exact, not sampled.
type Resource struct {
	name    string
	label   Label // name, resolved the first time a trace asks
	cap     int
	inUse   int
	waiters []*Proc

	lastStamp Time
	held      int64 // ∫ inUse dt, in slot·ns
	queued    int64 // ∫ len(waiters) dt, in waiter·ns
	maxQueue  int
	// busy is held / cap rounded down at every step, not once at the end.
	// It stays beside held because HostCPUBusy, and so every simulated CPU
	// figure, is defined by that rounding; deriving it from held would move
	// those figures in their last digits.
	busy time.Duration
}

// NewResource returns a resource with the given concurrency cap.
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{name: name, cap: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Label returns the resource name as a Label. The name is interned the first
// time this is asked, so only a resource some trace records pays for it.
func (r *Resource) Label() Label {
	if r.label == 0 {
		r.label = Intern(r.name)
	}
	return r.label
}

// Cap returns the resource's concurrency capacity.
func (r *Resource) Cap() int { return r.cap }

// QueueLen reports processes waiting for the resource.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// stamp integrates the state held since the last change up to now. A waiter
// exists only while every slot is held, so stamping on the enqueue path
// splits busy at a point where it gains exactly dt and leaves its rounding
// unchanged.
func (r *Resource) stamp(now Time) {
	if r.inUse > 0 {
		dt := now - r.lastStamp
		r.busy += time.Duration(dt) * time.Duration(r.inUse) / time.Duration(r.cap)
		r.held += int64(dt) * int64(r.inUse)
		r.queued += int64(dt) * int64(len(r.waiters))
	}
	r.lastStamp = now
}

// BusyTime returns the accumulated busy time (capacity-weighted) up to now.
func (r *Resource) BusyTime(now Time) time.Duration {
	r.stamp(now)
	return r.busy
}

// Occupancy reports, as of now and without changing any state, the
// occupancy area (slot·ns), the queue-length area (waiter·ns) and the
// deepest queue seen since the resource was created. now must not precede
// the resource's last state change.
func (r *Resource) Occupancy(now Time) (held, queued int64, maxQueue int) {
	dt := int64(now - r.lastStamp)
	return r.held + dt*int64(r.inUse), r.queued + dt*int64(len(r.waiters)), r.maxQueue
}

// Acquire blocks p until a slot is free, FIFO order. Time spent queued is
// reported to the process's tracer.
func (r *Resource) Acquire(p *Proc) {
	r.stamp(p.Now())
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	start := p.Now()
	r.waiters = append(r.waiters, p)
	r.maxQueue = max(r.maxQueue, len(r.waiters))
	p.park()
	// Slot was transferred to us by Release; accounting already updated.
	p.TraceWait(r, start)
}

// Release frees a slot and hands it to the first waiter, if any.
func (r *Resource) Release(p *Proc) {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.stamp(p.Now())
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		// Slot stays in use, transferred to w.
		p.e.schedule(p.Now(), w, nil)
		return
	}
	r.inUse--
}

// Use acquires the resource, holds it for d of virtual time, and releases it.
// This is the common "serve one request at a station" pattern. The hold time
// is reported to the process's tracer as service time.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	start := p.Now()
	p.Sleep(d)
	p.TraceHold(r, start)
	r.Release(p)
}

// ---------------------------------------------------------------------------
// Queue: typed FIFO mailbox between processes.

// Queue is an unbounded FIFO channel between processes. Pop parks when empty;
// Push wakes the longest-waiting consumer.
type Queue[T any] struct {
	items   []T
	waiters []*Proc
	closed  bool
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len reports queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push enqueues v and wakes one waiting consumer.
func (q *Queue[T]) Push(p *Proc, v T) {
	if q.closed {
		panic("sim: push to closed queue")
	}
	q.items = append(q.items, v)
	q.wakeOne(p.e)
}

// PushFrom enqueues v from an engine callback context.
func (q *Queue[T]) PushFrom(e *Engine, v T) {
	if q.closed {
		panic("sim: push to closed queue")
	}
	q.items = append(q.items, v)
	q.wakeOne(e)
}

func (q *Queue[T]) wakeOne(e *Engine) {
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		e.schedule(e.now, w, nil)
	}
}

// Close marks the queue closed; blocked and future Pops return ok=false once
// drained.
func (q *Queue[T]) Close(p *Proc) {
	q.closed = true
	for _, w := range q.waiters {
		p.e.schedule(p.Now(), w, nil)
	}
	q.waiters = nil
}

// Pop dequeues the next item, parking until one is available. ok is false if
// the queue was closed and drained.
func (q *Queue[T]) Pop(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}

// TryPop dequeues without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}
