package main

import (
	"time"

	"dedupstore/internal/metrics"
	"dedupstore/internal/sim"
)

// tracer is the traced run's instrumentation. It sits entirely outside the
// program: it drains the cluster's existing span ring, times the two backend
// seams the benchmark owns, and never schedules a simulated event, so a
// traced run must reproduce the untraced run's digest. Every method is a
// no-op on a nil tracer, which is what an untraced run carries.
type tracer struct {
	on   bool // set for the timed phase only
	sink *metrics.TraceSink
	seen int64 // sink.Total() at the last drain

	recorded int64
	dropped  int64 // spans the ring overwrote between two drains
	spans    map[string]*spanAgg
	children map[uint64]*cover // direct child coverage, by parent span id

	client   [numOpKinds][]int64 // span at the client.BlockDevice boundary
	outer    [numOpKinds]layerAcc
	inner    [numOpKinds]layerAcc
	admit    []int64 // per backend call: outer span minus inner span
	lastSpan int64   // duration of the most recent inner-decorator span
	coreSelf [numOpKinds]layerAcc
}

// spanAgg aggregates the drained spans of one (name, class) pair.
type spanAgg struct {
	dur       []int64
	wait      int64 // summed queue wait across resources
	bytes     int64
	pools     map[string]int64 // span count per pool
	poolBytes map[string]int64 // payload bytes per pool
}

// cover accumulates the intervals of a span's direct children.
type cover struct{ iv [][2]sim.Time }

// sliceEvery is how much simulated time the engine advances between two
// drains of the span ring. The ring holds 4096 spans; the busiest workload
// records a few hundred per simulated millisecond.
const sliceEvery = 2 * time.Millisecond

func newTracer() *tracer {
	return &tracer{spans: make(map[string]*spanAgg), children: make(map[uint64]*cover)}
}

func (t *tracer) start(w *world) {
	if t == nil {
		return
	}
	t.sink = w.c.Trace()
	t.seen = t.sink.Total()
	t.on = true
}

func (t *tracer) stop() {
	if t != nil {
		t.on = false
	}
}

// runSliced drives the engine like world.run but in slices of simulated
// time, draining the span ring between slices. Slicing changes nothing the
// simulation can observe: events keep their (time, seq) order and none is
// added.
func (t *tracer) runSliced(w *world, fn func(p *sim.Proc)) {
	done := w.eng.Go("bench", fn)
	for !done.Fired() {
		w.eng.RunUntil(w.eng.Now() + sim.Time(sliceEvery))
		t.drain()
	}
}

// drain consumes the spans recorded since the last drain. The ring returns
// spans in record order, newest last, so the new ones are exactly the last
// Total()-seen entries; anything beyond the ring's capacity was overwritten
// and is counted as dropped.
func (t *tracer) drain() {
	total := t.sink.Total()
	fresh := total - t.seen
	t.seen = total
	got := t.sink.Recent(int(fresh))
	t.dropped += fresh - int64(len(got))
	for i := range got {
		t.consume(&got[i])
	}
}

func (t *tracer) consume(sp *metrics.Span) {
	t.recorded++
	key := sp.Name
	if sp.Class != "" {
		key += "/" + sp.Class
	}
	agg := t.spans[key]
	if agg == nil {
		agg = &spanAgg{pools: make(map[string]int64), poolBytes: make(map[string]int64)}
		t.spans[key] = agg
	}
	agg.dur = append(agg.dur, int64(sp.End-sp.Start))
	agg.wait += int64(sp.QueueWait())
	agg.bytes += sp.Bytes
	agg.pools[sp.Pool]++
	agg.poolBytes[sp.Pool] += sp.Bytes

	// Self time of the core op spans: duration minus what direct children
	// cover. Children finish, and are recorded, before their parent.
	if sp.Parent != 0 {
		c := t.children[sp.Parent]
		if c == nil {
			c = &cover{}
			t.children[sp.Parent] = c
		}
		c.iv = append(c.iv, [2]sim.Time{sp.Start, sp.End})
	}
	if c := t.children[sp.ID]; c != nil {
		delete(t.children, sp.ID)
		var k opKind
		switch sp.Name {
		case "dedup.write":
			k = opWrite
		case "dedup.read":
			k = opRead
		default:
			return
		}
		t.coreSelf[k].calls++
		t.coreSelf[k].ns += int64(sp.End-sp.Start) - covered(c.iv, sp.Start, sp.End)
	}
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]sim.Time, lo, hi sim.Time) int64 {
	// children of one op are few; insertion sort by start
	for i := 1; i < len(iv); i++ {
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var sum int64
	at := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += int64(e - s)
			at = e
		}
	}
	return sum
}

// end records the BlockDevice-boundary span of a foreground op.
func (t *tracer) end(p *sim.Proc, k opKind, start sim.Time) {
	if t != nil && t.on {
		t.client[k] = append(t.client[k], int64(p.Now()-start))
	}
}
