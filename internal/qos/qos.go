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
//
// Both mechanisms exist once and also serve the tenant gateway one level up:
// FairQueue is the SFQ core (a Scheduler is one with a flow per class, the
// gateway's coordinator one with a flow per tenant) and Limiter is the rate
// limiter (a class limit is one with burst 1, a tenant SLO one with a burst
// of bytes).
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

// classLabels holds the class names resolved as span labels.
var classLabels = func() (ls [NumClasses]sim.Label) {
	for c := range ls {
		ls[c] = sim.Intern(classNames[c])
	}
	return ls
}()

// Label returns the class name as a trace span label.
func (c Class) Label() sim.Label { return classLabels[c] }

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

	// limits holds each class's admission timeline for LimitInterval: one
	// token per interval, burst 1, shared by every rate-limited submitter.
	limits [NumClasses]Limiter

	// OnAdmit, if non-nil, is called on every admission. It must not block.
	OnAdmit AdmitFunc
}

// NewGroup returns a scheduler group with the given shared config.
func NewGroup(cfg Config) *Group {
	g := &Group{cfg: cfg}
	for c := range g.limits {
		g.limits[c] = NewLimiter(1, cfg.Classes[c].LimitInterval, 1)
	}
	return g
}

// Weight returns the effective (clamped) weight of a class.
func (g *Group) Weight(cls Class) int64 { return max(g.cfg.Classes[cls].Weight, 1) }

// SetWeight updates a class's weight across every scheduler in the group.
// Ops already queued keep their tags; newly submitted ops use the new
// weight, so a change takes effect within one queue drain.
func (g *Group) SetWeight(cls Class, w int64) {
	g.cfg.Classes[cls].Weight = w
	for _, s := range g.scheds {
		s.fq.flows[cls].weight = g.Weight(cls)
	}
}

// Limit returns a class's admission spacing (0 = no rate limit).
func (g *Group) Limit(cls Class) time.Duration { return g.limits[cls].per }

// SetLimit sets the minimum spacing between the class's admissions across
// the whole group (0 = no rate limit). Unlike SetWeight this is
// non-work-conserving: the class is held to the rate even on idle devices.
// A retune keeps the next admission slot already earned; clearing the limit
// drops it, so a later re-enable starts from the current time, not a stale
// horizon.
func (g *Group) SetLimit(cls Class, interval time.Duration) {
	g.limits[cls].retune(interval)
}

// WaitTurn holds the caller to the class's admission spacing (LimitInterval)
// and returns immediately when no limit is set. Call it once at the start of
// each logical operation of the class: it is the class limiter's Take of one
// token. Nothing is reserved ahead of time, so the admission horizon never
// runs more than one interval past the clock and retuning or clearing the
// limit takes effect within one interval even for callers already asleep.
func (g *Group) WaitTurn(p *sim.Proc, cls Class) { g.limits[cls].Take(p, 1) }

// Charge bills a completed operation that turned out to cover n cost units
// (postpaid cost accounting, as mClock does with delayed cost adjustment):
// WaitTurn prepays one admission slot, Charge pushes the class's next slot
// out by the remaining n-1 intervals once the true cost is known. A no-op
// when no limit is set.
func (g *Group) Charge(p *sim.Proc, cls Class, n int64) {
	if n > 1 {
		g.limits[cls].charge(p.Now(), n-1)
	}
}

// MaxDepth returns a class's queue-depth cap (0 = unlimited).
func (g *Group) MaxDepth(cls Class) int { return g.cfg.Classes[cls].MaxDepth }

// SetMaxDepth updates a class's depth cap across the group (0 = unlimited).
// Submitters already parked on a lowered cap stay parked until in-flight ops
// of the class drain below it; a raised cap admits new submitters
// immediately and parked ones as completions wake them.
func (g *Group) SetMaxDepth(cls Class, depth int) {
	g.cfg.Classes[cls].MaxDepth = max(depth, 0)
}

// NewScheduler creates a scheduler fronting res and registers it with the
// group. All access to res must go through the returned scheduler: the SFQ
// grant order relies on the underlying resource never queueing on its own.
func (g *Group) NewScheduler(res *sim.Resource) *Scheduler {
	s := &Scheduler{g: g, res: res, fq: NewFairQueue(res.Cap())}
	for c := range NumClasses {
		s.fq.AddFlow(g.Weight(c))
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
func (g *Group) Totals() []ClassTotals { return g.totals(g.scheds) }

func (g *Group) totals(scheds []*Scheduler) []ClassTotals {
	out := make([]ClassTotals, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		out[c] = ClassTotals{Class: c.String(), Weight: g.Weight(c), MaxDepth: g.MaxDepth(c), Limit: g.Limit(c)}
		for _, s := range scheds {
			s.fq.totals(int(c), &out[c])
		}
	}
	return out
}

// Scheduler is the admission gate in front of one sim.Resource (an OSD's
// disk, a host's NIC): a FairQueue with one flow per class and the
// resource's capacity.
type Scheduler struct {
	g   *Group
	res *sim.Resource
	fq  FairQueue
}

// Resource returns the underlying resource (for name/utilization reporting).
func (s *Scheduler) Resource() *sim.Resource { return s.res }

// Use submits an op of the given class and cost: it blocks until the class
// is under its depth cap and the fair queue grants a service slot, holds the
// underlying resource for d of virtual time, then releases the slot to the
// next op in SFQ order. Queue wait and service time are reported to the
// process's tracer as the resource's, so trace spans keep their
// queue-wait/service breakdown.
func (s *Scheduler) Use(p *sim.Proc, cls Class, d time.Duration) {
	d = max(d, 0)
	wait, queued := s.fq.Acquire(p, int(cls), int64(d), s.g.cfg.Classes[cls].MaxDepth)
	if queued {
		p.TraceWait(s.res, p.Now()-sim.Time(wait))
	}
	if fn := s.g.OnAdmit; fn != nil {
		fn(s.res.Name(), cls, wait, queued)
	}

	// Service. The scheduler only grants while inflight < cap and it is the
	// sole admission path, so this Acquire never queues.
	s.res.Acquire(p)
	start := p.Now()
	p.Sleep(d)
	p.TraceHold(s.res, start)
	s.res.Release(p)
	s.fq.flows[cls].busy += d
	s.fq.Release(p, int(cls))
}

// Snapshot returns this scheduler's per-class counters.
func (s *Scheduler) Snapshot() []ClassTotals { return s.g.totals([]*Scheduler{s}) }
