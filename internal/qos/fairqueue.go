package qos

import (
	"time"

	"dedupstore/internal/sim"
)

// FairQueue is the one start-time-fair queue (SFQ): it grants at most
// capacity concurrent slots (0 = unbounded) across flows, caps each flow's
// pending ops, and under contention picks the waiter with the smallest
// finish tag. Each op is stamped with integer virtual start/finish tags —
// start at the later of the virtual clock and the flow's last finish (so an
// idle flow re-enters at the current virtual time instead of burning
// accumulated credit), finish after cost/weight of virtual progress — and a
// grant moves the virtual clock to the granted op's start tag. A flow of
// weight w receives w/Σweights of the capacity while backlogged, weights
// clamp to at least 1 so no flow starves, and ties break by flow order, so
// the grant order is bit-for-bit deterministic.
//
// A Scheduler runs one per device with a flow per class; the gateway's
// Coordinator runs one with a flow per tenant.
type FairQueue struct {
	capacity int    // concurrent grants (0 = unbounded)
	inflight int    // ops granted and not yet released
	waiting  int    // ops queued across all flows
	virt     int64  // virtual clock: start tag of the latest grant
	flows    []flow // AddFlow may move them: re-index after parking
}

// weightScale keeps integer finish-tag increments meaningful for small costs
// divided by large weights.
const weightScale = 1000

type waiter struct {
	start  int64 // SFQ virtual start tag
	finish int64 // SFQ virtual finish tag
	sig    *sim.Signal
}

type flow struct {
	weight     int64     // share under contention, at least 1
	queue      []*waiter // FIFO with monotone tags: the head has the smallest finish
	lastFinish int64     // finish tag of the flow's most recent submission
	pending    int       // queued + granted, against the depth cap
	depth      sim.Cond  // parks submitters at the depth cap

	admitted  int64
	queued    int64
	throttled int64
	maxQueue  int
	waitTime  time.Duration
	busy      time.Duration
}

// NewFairQueue returns a queue of the given capacity (0 = unbounded).
func NewFairQueue(capacity int) FairQueue {
	return FairQueue{capacity: max(capacity, 0)}
}

// AddFlow adds a flow of the given weight (clamped to at least 1) and returns
// its index, which is also its tie-break rank.
func (q *FairQueue) AddFlow(weight int64) int {
	q.flows = append(q.flows, flow{weight: max(weight, 1)})
	return len(q.flows) - 1
}

// Acquire blocks p until flow f has fewer than depth ops pending (0 = no cap)
// and the queue grants it a slot for an op of the given cost. It reports how
// long the op waited for the grant and whether it had to queue at all.
func (q *FairQueue) Acquire(p *sim.Proc, f int, cost int64, depth int) (wait time.Duration, queued bool) {
	fl := &q.flows[f]
	// Backpressure: park (never spin) while the flow is at its depth cap. The
	// loop re-checks because another submitter may take the freed place
	// between our wakeup being scheduled and running.
	if depth > 0 && fl.pending >= depth {
		fl.throttled++
		for fl.pending >= depth {
			fl.depth.Wait(p)
			fl = &q.flows[f]
		}
	}
	fl.pending++
	if q.capacity == 0 { // unbounded: nothing ever queues, so nothing to order
		q.inflight++
		fl.admitted++
		return 0, false
	}

	// Tag the submission whether or not it queues, so a busy flow's next op
	// always starts no earlier than its previous one finished.
	start := max(q.virt, fl.lastFinish)
	fl.lastFinish = start + max(cost*weightScale/fl.weight, 1)
	if q.inflight < q.capacity && q.waiting == 0 {
		q.virt = max(q.virt, start)
		q.inflight++
		fl.admitted++
		return 0, false
	}
	w := &waiter{start: start, finish: fl.lastFinish, sig: sim.NewSignal()}
	fl.queue = append(fl.queue, w)
	fl.queued++
	fl.maxQueue = max(fl.maxQueue, len(fl.queue))
	q.waiting++
	begin := p.Now()
	w.sig.Wait(p) // Release fires this when the op wins a slot
	fl = &q.flows[f]
	wait = (p.Now() - begin).Duration()
	fl.waitTime += wait
	fl.admitted++
	return wait, true
}

// Release frees flow f's slot: it wakes one submitter parked at the flow's
// depth cap, then fills free slots in SFQ order.
func (q *FairQueue) Release(p *sim.Proc, f int) {
	fl := &q.flows[f]
	q.inflight--
	fl.pending--
	fl.depth.Signal(p)
	for q.inflight < q.capacity && q.waiting > 0 {
		var best *flow
		for i := range q.flows {
			if c := &q.flows[i]; len(c.queue) > 0 && (best == nil || c.queue[0].finish < best.queue[0].finish) {
				best = c
			}
		}
		w := best.queue[0]
		best.queue = best.queue[1:]
		q.waiting--
		q.virt = max(q.virt, w.start)
		q.inflight++
		w.sig.Fire(p)
	}
}

// totals adds flow f's counters into t.
func (q *FairQueue) totals(f int, t *ClassTotals) {
	fl := &q.flows[f]
	t.Admitted += fl.admitted
	t.Queued += fl.queued
	t.Throttled += fl.throttled
	t.QueueLen += len(fl.queue)
	t.Inflight += fl.pending - len(fl.queue)
	t.MaxQueue = max(t.MaxQueue, fl.maxQueue)
	t.QueueWait += fl.waitTime
	t.Busy += fl.busy
}
