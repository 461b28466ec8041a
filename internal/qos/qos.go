// Package qos implements a deterministic per-resource op scheduler with
// priority classes, weighted fair queueing, and per-class queue-depth caps
// with backpressure. It is the single admission point through which every
// disk and NIC operation in the cluster flows, replacing the per-subsystem
// ad-hoc pacing (the dedup engine's watermark sleep loop, recovery's
// streams-per-OSD workers, scrub's one-object-at-a-time serialization) with
// one policy surface.
//
// Every I/O class — client, dedup, recovery, scrub, gc — submits work with
// Scheduler.Use. Under contention the scheduler grants service slots in
// start-time-fair-queueing (SFQ) order: each op is stamped with integer
// virtual start/finish tags derived from its cost divided by its class
// weight, and the op with the smallest finish tag runs next. A class with
// weight w receives w/Σweights of the resource's capacity while backlogged,
// and weights are clamped to at least 1, so no class is ever fully starved
// (the reservation guarantee). Because tags are integer arithmetic on the
// virtual clock, scheduling order is bit-for-bit deterministic across runs
// and platforms.
//
// Per-class MaxDepth caps bound how many ops of a class may be queued or in
// service at one scheduler. A caller over the cap parks on a sim.Cond until
// a slot frees — backpressure by blocking, not spinning — which is how
// "recovery streams" and "scrub concurrency" are now expressed.
//
// The paper's §4.4.2 watermark rate controller becomes a thin policy on top:
// it watches foreground IOPS and adjusts the dedup class weight
// (Group.SetWeight — the work-conserving share on busy devices) and the
// dedup class rate limit (Group.SetLimit — the mClock-style upper bound
// that holds the paper's one-dedup-op-per-N-client-requests trickle even
// when devices are idle). The scheduler does the actual throttling.
package qos

import (
	"time"

	"dedupstore/internal/sim"
)

// Class is an I/O priority class. Every op submitted to a Scheduler belongs
// to exactly one class.
type Class uint8

const (
	// Client is foreground client I/O: reads, writes, metadata ops issued
	// on behalf of an application.
	Client Class = iota
	// Dedup is background deduplication traffic: chunk flushes, cache
	// evictions, dirty-object scans.
	Dedup
	// Recovery is replica/shard copy and rebuild traffic after an OSD
	// failure or replacement.
	Recovery
	// Scrub is consistency verification and repair traffic.
	Scrub
	// GC is chunk-pool garbage collection traffic.
	GC
	// Tiering is adaptive-redundancy migration traffic: promote/demote chunk
	// moves between the replicated and EC chunk pools and hot-object
	// recaches issued by the tiering policy daemon.
	Tiering
	// NumClasses bounds the class enum; not a valid class.
	NumClasses
)

var classNames = [NumClasses]string{"client", "dedup", "recovery", "scrub", "gc", "tiering"}

func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return "invalid"
}

// ClassNames lists the class names in enum order.
func ClassNames() []string {
	return append([]string(nil), classNames[:]...)
}

// ClassConfig is one class's scheduling parameters.
type ClassConfig struct {
	// Weight is the class's share of capacity under contention, relative to
	// the other classes' weights. Values below 1 are treated as 1: every
	// class keeps a minimum reservation and cannot be starved.
	Weight int64
	// MaxDepth caps ops of this class queued or in service at one
	// scheduler; 0 means unlimited. Callers over the cap block until a
	// slot frees.
	MaxDepth int
	// LimitInterval is the minimum virtual-time spacing between *logical
	// operations* of this class across the whole group; 0 means no rate
	// limit. Weights divide a *busy* device; the limit is the
	// non-work-conserving half of the policy surface (mClock's "limit"
	// tag): it bounds a class's rate even when devices are idle, which is
	// how the §4.4.2 watermark controller's "one dedup op per N client
	// requests" trickle is expressed. The spacing is enforced by callers
	// invoking Group.WaitTurn once at the start of each logical operation
	// (e.g. one chunk flush), not per device I/O — throttling an
	// operation mid-flight would stall whatever locks or objects it
	// holds. Operations that batch several cost units without a safe
	// pause point bill the remainder postpaid via Group.Charge.
	LimitInterval time.Duration
}

// Config holds the per-class parameters shared by every scheduler in a
// Group.
type Config struct {
	Classes [NumClasses]ClassConfig
}

// DefaultConfig returns the cluster defaults: client and dedup at equal
// weight (the watermark policy lowers dedup under foreground load — below
// the low watermark the paper applies no limitation), recovery at a quarter
// share, scrub and gc at a tenth. Depth caps express the old ad-hoc bounds:
// recovery's 4 streams per OSD, modest scrub/gc/dedup concurrency.
func DefaultConfig() Config {
	var cfg Config
	cfg.Classes[Client] = ClassConfig{Weight: 1000, MaxDepth: 0}
	cfg.Classes[Dedup] = ClassConfig{Weight: 1000, MaxDepth: 2}
	cfg.Classes[Recovery] = ClassConfig{Weight: 250, MaxDepth: 4}
	cfg.Classes[Scrub] = ClassConfig{Weight: 100, MaxDepth: 2}
	cfg.Classes[GC] = ClassConfig{Weight: 100, MaxDepth: 2}
	cfg.Classes[Tiering] = ClassConfig{Weight: 100, MaxDepth: 2}
	return cfg
}

// AdmitFunc observes every admission decision: the resource the op was
// admitted to, its class, how long it waited in the scheduler queue, and
// whether it had to queue at all. Wired by the cluster to its metrics
// registry.
type AdmitFunc func(resource string, cls Class, wait time.Duration, queued bool)

// Group shares one Config across all of a cluster's schedulers, so a single
// SetWeight call (the watermark policy's knob) retunes every OSD disk and
// host NIC at once.
type Group struct {
	cfg    Config
	scheds []*Scheduler

	// nextEligible is the per-class admission timeline for LimitInterval:
	// each rate-limited submitter reserves the next free slot on it.
	nextEligible [NumClasses]sim.Time

	// OnAdmit, if non-nil, is called on every admission. It must not block.
	OnAdmit AdmitFunc
}

// NewGroup returns a scheduler group with the given shared config.
func NewGroup(cfg Config) *Group { return &Group{cfg: cfg} }

// Weight returns the effective (clamped) weight of a class.
func (g *Group) Weight(cls Class) int64 {
	w := g.cfg.Classes[cls].Weight
	if w < 1 {
		return 1
	}
	return w
}

// SetWeight updates a class's weight across every scheduler in the group.
// Ops already queued keep their tags; newly submitted ops use the new
// weight, so a change takes effect within one queue drain.
func (g *Group) SetWeight(cls Class, w int64) {
	g.cfg.Classes[cls].Weight = w
}

// Limit returns a class's admission spacing (0 = no rate limit).
func (g *Group) Limit(cls Class) time.Duration { return g.cfg.Classes[cls].LimitInterval }

// SetLimit sets the minimum spacing between the class's admissions across
// the whole group (0 = no rate limit). Unlike SetWeight this is
// non-work-conserving: the class is held to the rate even on idle devices.
func (g *Group) SetLimit(cls Class, interval time.Duration) {
	if interval < 0 {
		interval = 0
	}
	if interval == 0 {
		// Drop any reserved-ahead admission slots so a later re-enable
		// starts from the current time, not a stale horizon.
		g.nextEligible[cls] = 0
	}
	g.cfg.Classes[cls].LimitInterval = interval
}

// WaitTurn holds the caller to the class's admission spacing (LimitInterval)
// and returns immediately when no limit is set. Call it once at the start of
// each logical operation of the class. The caller claims the next slot if it
// is due, otherwise sleeps until the slot time and re-checks. Nothing is
// reserved ahead of time, so the admission horizon never runs more than one
// interval past the clock and retuning or clearing the limit takes effect
// within one interval even for callers already asleep.
func (g *Group) WaitTurn(p *sim.Proc, cls Class) {
	for {
		iv := g.cfg.Classes[cls].LimitInterval
		if iv <= 0 {
			return
		}
		now := p.Now()
		if next := g.nextEligible[cls]; next > now {
			p.SleepUntil(next)
			continue
		}
		g.nextEligible[cls] = now + sim.Time(iv)
		return
	}
}

// Charge bills a completed operation that turned out to cover n cost units
// (postpaid cost accounting, as mClock does with delayed cost adjustment):
// WaitTurn prepays one admission slot, Charge pushes the class's next slot
// out by the remaining n-1 intervals once the true cost is known. A no-op
// when no limit is set.
func (g *Group) Charge(p *sim.Proc, cls Class, n int64) {
	iv := g.cfg.Classes[cls].LimitInterval
	if iv <= 0 || n <= 1 {
		return
	}
	next := g.nextEligible[cls]
	if now := p.Now(); next < now {
		next = now
	}
	g.nextEligible[cls] = next + sim.Time(iv)*sim.Time(n-1)
}

// MaxDepth returns a class's queue-depth cap (0 = unlimited).
func (g *Group) MaxDepth(cls Class) int { return g.cfg.Classes[cls].MaxDepth }

// SetMaxDepth updates a class's depth cap across the group (0 = unlimited).
// Submitters already parked on a lowered cap stay parked until in-flight ops
// of the class drain below it; a raised cap admits new submitters
// immediately and parked ones as completions wake them.
func (g *Group) SetMaxDepth(cls Class, depth int) {
	if depth < 0 {
		depth = 0
	}
	g.cfg.Classes[cls].MaxDepth = depth
}

// NewScheduler creates a scheduler fronting res and registers it with the
// group. All access to res must go through the returned scheduler: the SFQ
// grant order relies on the underlying resource never queueing on its own.
func (g *Group) NewScheduler(res *sim.Resource) *Scheduler {
	s := &Scheduler{g: g, res: res}
	for c := range s.depthCond {
		s.depthCond[c] = sim.NewCond()
	}
	g.scheds = append(g.scheds, s)
	return s
}

// ClassTotals is one class's aggregated counters, across one scheduler or a
// whole group.
type ClassTotals struct {
	Class     string        // class name
	Weight    int64         // current effective weight
	MaxDepth  int           // configured depth cap (0 = unlimited)
	Limit     time.Duration // admission spacing (0 = no rate limit)
	Admitted  int64         // ops granted service
	Queued    int64         // ops that waited in the fair queue before service
	Throttled int64         // times a submitter blocked on the depth cap
	QueueLen  int           // ops currently waiting in the fair queue
	Inflight  int           // ops currently in service
	MaxQueue  int           // high-water fair-queue length
	QueueWait time.Duration // total time ops spent queued
	Busy      time.Duration // total service time consumed
}

// Totals aggregates counters per class across every scheduler in the group.
func (g *Group) Totals() []ClassTotals {
	out := make([]ClassTotals, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		out[c].Class = c.String()
		out[c].Weight = g.Weight(c)
		out[c].MaxDepth = g.cfg.Classes[c].MaxDepth
		out[c].Limit = g.cfg.Classes[c].LimitInterval
	}
	for _, s := range g.scheds {
		for c := Class(0); c < NumClasses; c++ {
			st := &s.classes[c]
			t := &out[c]
			t.Admitted += st.admitted
			t.Queued += st.queued
			t.Throttled += st.throttled
			t.QueueLen += len(st.queue)
			t.Inflight += st.pending - len(st.queue)
			if st.maxQueue > t.MaxQueue {
				t.MaxQueue = st.maxQueue
			}
			t.QueueWait += st.waitTime
			t.Busy += st.busy
		}
	}
	return out
}

// weightScale keeps integer finish-tag increments meaningful for
// sub-microsecond costs divided by large weights.
const weightScale = 1000

type waiter struct {
	start  int64 // SFQ virtual start tag
	finish int64 // SFQ virtual finish tag
	sig    *sim.Signal
}

type classState struct {
	queue      []*waiter
	lastFinish int64 // finish tag of this class's most recent submission
	pending    int   // queued + in service (MaxDepth accounting)

	admitted  int64
	queued    int64
	throttled int64
	maxQueue  int
	waitTime  time.Duration
	busy      time.Duration
}

// Scheduler is the admission gate in front of one sim.Resource (an OSD's
// disk, a host's NIC). It grants at most res.Cap() concurrent ops, picking
// the next op by smallest SFQ finish tag whenever a slot frees.
type Scheduler struct {
	g   *Group
	res *sim.Resource

	inflight    int   // ops currently holding a resource slot
	queuedTotal int   // ops across all class queues
	virt        int64 // SFQ virtual clock: max start tag granted so far

	classes   [NumClasses]classState
	depthCond [NumClasses]*sim.Cond
}

// Resource returns the underlying resource (for name/utilization reporting).
func (s *Scheduler) Resource() *sim.Resource { return s.res }

// Use submits an op of the given class and cost: it blocks until the class
// is under its depth cap and the fair queue grants a service slot, holds the
// underlying resource for d of virtual time, then releases the slot to the
// next op in SFQ order. Queue wait and service time are reported to the
// process's tracer under the resource's name, so trace spans keep their
// queue-wait/service breakdown.
func (s *Scheduler) Use(p *sim.Proc, cls Class, d time.Duration) {
	if d < 0 {
		d = 0
	}
	st := &s.classes[cls]

	// Backpressure: park (never spin) while the class is at its depth cap.
	// The loop re-checks because another submitter may take the freed slot
	// between our wakeup being scheduled and running.
	if max := s.g.cfg.Classes[cls].MaxDepth; max > 0 && st.pending >= max {
		st.throttled++
		for st.pending >= max {
			s.depthCond[cls].Wait(p)
		}
	}
	st.pending++

	s.admit(p, cls, d)

	// Service. The scheduler only grants while inflight < cap and it is the
	// sole admission path, so this Acquire never queues.
	s.res.Acquire(p)
	start := p.Now()
	p.Sleep(d)
	if t := p.Tracer(); t != nil {
		t.ResourceHold(s.res.Name(), start, p.Now())
	}
	s.res.Release(p)
	st.busy += d

	s.inflight--
	st.pending--
	s.depthCond[cls].Signal(p)
	s.dispatch(p)
}

// admit blocks p until the fair queue grants it a service slot.
func (s *Scheduler) admit(p *sim.Proc, cls Class, d time.Duration) {
	st := &s.classes[cls]
	if s.inflight < s.res.Cap() && s.queuedTotal == 0 {
		// Free slot and an empty queue: grant immediately.
		startTag, _ := s.tag(cls, d)
		if startTag > s.virt {
			s.virt = startTag
		}
		s.inflight++
		st.admitted++
		if fn := s.g.OnAdmit; fn != nil {
			fn(s.res.Name(), cls, 0, false)
		}
		return
	}
	w := &waiter{sig: sim.NewSignal()}
	w.start, w.finish = s.tag(cls, d)
	st.queue = append(st.queue, w)
	st.queued++
	if len(st.queue) > st.maxQueue {
		st.maxQueue = len(st.queue)
	}
	s.queuedTotal++
	begin := p.Now()
	w.sig.Wait(p) // dispatch fires this when the op wins a slot
	wait := (p.Now() - begin).Duration()
	st.waitTime += wait
	st.admitted++
	if t := p.Tracer(); t != nil {
		t.ResourceWait(s.res.Name(), begin, p.Now())
	}
	if fn := s.g.OnAdmit; fn != nil {
		fn(s.res.Name(), cls, wait, true)
	}
}

// tag stamps a submission with SFQ virtual start/finish tags: start at the
// later of the virtual clock and the class's last finish (so an idle class
// re-enters at the current virtual time instead of burning accumulated
// credit), finish after cost/weight of virtual progress.
func (s *Scheduler) tag(cls Class, d time.Duration) (start, finish int64) {
	st := &s.classes[cls]
	start = s.virt
	if st.lastFinish > start {
		start = st.lastFinish
	}
	inc := int64(d) * weightScale / s.g.Weight(cls)
	if inc < 1 {
		inc = 1
	}
	finish = start + inc
	st.lastFinish = finish
	return start, finish
}

// dispatch fills free service slots with queued ops in SFQ order: smallest
// finish tag first, ties broken by class enum order. Within a class the
// queue is FIFO and tags are monotonic, so the head always has the class's
// smallest finish tag.
func (s *Scheduler) dispatch(p *sim.Proc) {
	for s.inflight < s.res.Cap() && s.queuedTotal > 0 {
		best := -1
		for c := 0; c < int(NumClasses); c++ {
			q := s.classes[c].queue
			if len(q) == 0 {
				continue
			}
			if best < 0 || q[0].finish < s.classes[best].queue[0].finish {
				best = c
			}
		}
		st := &s.classes[best]
		w := st.queue[0]
		st.queue = st.queue[1:]
		s.queuedTotal--
		if w.start > s.virt {
			s.virt = w.start
		}
		s.inflight++
		w.sig.Fire(p)
	}
}

// Snapshot returns this scheduler's per-class counters.
func (s *Scheduler) Snapshot() []ClassTotals {
	out := make([]ClassTotals, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		st := &s.classes[c]
		out[c] = ClassTotals{
			Class:     c.String(),
			Weight:    s.g.Weight(c),
			MaxDepth:  s.g.cfg.Classes[c].MaxDepth,
			Limit:     s.g.cfg.Classes[c].LimitInterval,
			Admitted:  st.admitted,
			Queued:    st.queued,
			Throttled: st.throttled,
			QueueLen:  len(st.queue),
			Inflight:  st.pending - len(st.queue),
			MaxQueue:  st.maxQueue,
			QueueWait: st.waitTime,
			Busy:      st.busy,
		}
	}
	return out
}
