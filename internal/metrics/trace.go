package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dedupstore/internal/sim"
)

// ResourceSpan is one FIFO resource's contribution to a span: how long the
// operation queued for a slot and how long the slot served it.
type ResourceSpan struct {
	Resource string
	Wait     time.Duration // queued behind other holders
	Hold     time.Duration // service time inside Resource.Use
}

// Span is one traced operation: virtual start/end time, identity (op kind,
// pool, placement group, payload bytes) and the queue-wait vs. service-time
// breakdown across every sim FIFO resource the op touched. A span attaches
// to the executing sim.Proc as its Tracer, so resource waits — including
// those of child processes (replica writers, parallel chunk reads) — accrue
// automatically; nested Start calls record the parent span's ID.
type Span struct {
	ID     uint64
	Parent uint64
	Name   string // op kind, e.g. "rados.write"
	Class  string // QoS class the op was admitted under ("client", "dedup", ...)
	Tenant string // tenant the op is attributed to ("" = not tenant traffic)
	Pool   string
	PG     string
	Bytes  int64
	Start  sim.Time
	End    sim.Time
	Err    bool

	Resources []ResourceSpan

	sink *TraceSink
	prev sim.Tracer
}

// Duration is the span's total virtual time.
func (sp *Span) Duration() time.Duration { return (sp.End - sp.Start).Duration() }

// QueueWait is the summed queue wait across all resources.
func (sp *Span) QueueWait() time.Duration {
	var d time.Duration
	for _, r := range sp.Resources {
		d += r.Wait
	}
	return d
}

// Service is the summed resource service (hold) time.
func (sp *Span) Service() time.Duration {
	var d time.Duration
	for _, r := range sp.Resources {
		d += r.Hold
	}
	return d
}

func (sp *Span) resource(name string) *ResourceSpan {
	for i := range sp.Resources {
		if sp.Resources[i].Resource == name {
			return &sp.Resources[i]
		}
	}
	sp.Resources = append(sp.Resources, ResourceSpan{Resource: name})
	return &sp.Resources[len(sp.Resources)-1]
}

// ResourceWait implements sim.Tracer.
func (sp *Span) ResourceWait(resource string, start, end sim.Time) {
	if sp == nil || end <= start {
		return
	}
	sp.resource(resource).Wait += (end - start).Duration()
}

// ResourceHold implements sim.Tracer.
func (sp *Span) ResourceHold(resource string, start, end sim.Time) {
	if sp == nil || end <= start {
		return
	}
	sp.resource(resource).Hold += (end - start).Duration()
}

// SetOp fills in the span's operation identity. Nil-safe.
func (sp *Span) SetOp(pool, pg string, bytes int64) *Span {
	if sp != nil {
		sp.Pool, sp.PG, sp.Bytes = pool, pg, bytes
	}
	return sp
}

// SetClass tags the span with the QoS class its I/O was admitted under.
// Nil-safe.
func (sp *Span) SetClass(class string) *Span {
	if sp != nil {
		sp.Class = class
	}
	return sp
}

// SetTenant attributes the span to a tenant identity. Nil-safe.
func (sp *Span) SetTenant(tenant string) *Span {
	if sp != nil {
		sp.Tenant = tenant
	}
	return sp
}

// Finish closes the span at the process's current virtual time, restores the
// parent tracer, and records the span in the sink. Must be called on the
// same process that Started it. Nil-safe. Finish returns the span to the
// sink's pool: the caller must not touch the span afterwards — capture
// Name/Duration/fields before finishing if they are needed.
func (sp *Span) Finish(p *sim.Proc) {
	if sp == nil {
		return
	}
	sp.End = p.Now()
	p.SetTracer(sp.prev)
	// Fold this span's resource breakdown into the enclosing span, so a
	// parent op (e.g. a replicated write) reports the queue-wait and service
	// time of its nested phases too.
	if parent, ok := sp.prev.(*Span); ok && parent != nil {
		for _, r := range sp.Resources {
			pr := parent.resource(r.Resource)
			pr.Wait += r.Wait
			pr.Hold += r.Hold
		}
	}
	sp.sink.record(sp)
}

// String renders one span with its wait-vs-service breakdown.
func (sp *Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12v %-16s", sp.Duration(), sp.Name)
	if sp.Class != "" {
		fmt.Fprintf(&b, " class=%s", sp.Class)
	}
	if sp.Tenant != "" {
		fmt.Fprintf(&b, " tenant=%s", sp.Tenant)
	}
	if sp.Pool != "" {
		fmt.Fprintf(&b, " pool=%s", sp.Pool)
	}
	if sp.PG != "" {
		fmt.Fprintf(&b, " pg=%s", sp.PG)
	}
	if sp.Bytes > 0 {
		fmt.Fprintf(&b, " bytes=%d", sp.Bytes)
	}
	fmt.Fprintf(&b, " wait=%v service=%v", sp.QueueWait(), sp.Service())
	if len(sp.Resources) > 0 {
		rs := append([]ResourceSpan(nil), sp.Resources...)
		sort.Slice(rs, func(i, j int) bool { return rs[i].Wait+rs[i].Hold > rs[j].Wait+rs[j].Hold })
		if len(rs) > 4 {
			rs = rs[:4]
		}
		b.WriteString(" [")
		for i, r := range rs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s w=%v h=%v", r.Resource, r.Wait, r.Hold)
		}
		b.WriteString("]")
	}
	return b.String()
}

// TraceSink collects finished spans: a fixed-capacity ring of the most
// recent spans plus a bounded leaderboard of the slowest spans ever
// recorded, so post-run analysis sees both the tail and the recent shape
// without unbounded memory. Safe for concurrent use and on a nil receiver
// (tracing disabled: Start returns nil and all Span methods no-op).
//
// Spans are pooled: Finish recycles the span object and the ring reuses its
// slots' resource slices, so steady-state tracing is allocation-free. With
// SetSample(n) the sink keeps only every n-th span (deterministic counter,
// not random): Start returns nil for the skipped ones, and since every Span
// method is nil-safe, unsampled operations pay almost nothing.
type TraceSink struct {
	mu      sync.Mutex
	ring    []Span
	pos     int
	total   int64
	nextID  uint64
	slowCap int
	slow    []Span // sorted ascending by duration
	sample  int64  // keep 1 of every sample spans (1 = all)
	seen    int64  // spans considered by Start, sampled or not
	pool    []*Span
}

// DefaultSlowest is the leaderboard size kept by NewTraceSink.
const DefaultSlowest = 64

// spanPoolCap bounds the sink's free list of recycled spans.
const spanPoolCap = 1024

// NewTraceSink returns a sink retaining the ringCap most recent spans
// (minimum 16) and the DefaultSlowest slowest, sampling every span.
func NewTraceSink(ringCap int) *TraceSink {
	if ringCap < 16 {
		ringCap = 16
	}
	return &TraceSink{ring: make([]Span, 0, ringCap), slowCap: DefaultSlowest, sample: 1}
}

// SetSample makes the sink keep one of every n spans (n <= 1 keeps all).
// Sampling is a deterministic modulo of the span-start counter, so for a
// fixed program the same spans are kept on every run.
func (t *TraceSink) SetSample(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.sample = int64(n)
	t.mu.Unlock()
}

// Sample returns the sink's sampling interval (1 = every span is kept).
func (t *TraceSink) Sample() int {
	if t == nil {
		return 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.sample)
}

// Seen reports how many span starts the sink has considered, including ones
// dropped by sampling.
func (t *TraceSink) Seen() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen
}

// Start opens a span named name at the process's current virtual time and
// installs it as the process tracer. If the process is already inside a
// span, the new span records it as parent. Returns nil (a no-op span) on a
// nil sink or when sampling drops the span.
func (t *TraceSink) Start(p *sim.Proc, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.seen++
	if t.sample > 1 && (t.seen-1)%t.sample != 0 {
		t.mu.Unlock()
		return nil
	}
	t.nextID++
	id := t.nextID
	var sp *Span
	if n := len(t.pool); n > 0 {
		sp = t.pool[n-1]
		t.pool[n-1] = nil
		t.pool = t.pool[:n-1]
	}
	t.mu.Unlock()
	if sp == nil {
		sp = &Span{}
	}
	res := sp.Resources[:0]
	*sp = Span{ID: id, Name: name, Start: p.Now(), sink: t, Resources: res}
	if parent, ok := p.Tracer().(*Span); ok && parent != nil {
		sp.Parent = parent.ID
	}
	sp.prev = p.SetTracer(sp)
	return sp
}

func (t *TraceSink) record(sp *Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	// Ring insert, reusing the evicted slot's resource slice so steady-state
	// recording allocates nothing.
	var slot *Span
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, Span{})
		slot = &t.ring[len(t.ring)-1]
	} else {
		slot = &t.ring[t.pos]
		t.pos = (t.pos + 1) % len(t.ring)
	}
	res := slot.Resources
	*slot = *sp
	slot.Resources = append(res[:0], sp.Resources...)
	slot.sink, slot.prev = nil, nil
	// Leaderboard insert (ascending by duration, bounded). Entries own their
	// resource slices: the ring slot aliased above gets rewritten on eviction.
	d := sp.Duration()
	if !(len(t.slow) == t.slowCap && d <= t.slow[0].Duration()) {
		rec := *sp
		rec.Resources = append([]ResourceSpan(nil), sp.Resources...)
		rec.sink, rec.prev = nil, nil
		i := sort.Search(len(t.slow), func(i int) bool { return t.slow[i].Duration() >= d })
		t.slow = append(t.slow, Span{})
		copy(t.slow[i+1:], t.slow[i:])
		t.slow[i] = rec
		if len(t.slow) > t.slowCap {
			t.slow = t.slow[1:]
		}
	}
	// Recycle the finished span for a later Start.
	if len(t.pool) < spanPoolCap {
		sp.sink, sp.prev = nil, nil
		t.pool = append(t.pool, sp)
	}
}

// Total reports how many spans have been recorded over the sink's lifetime.
func (t *TraceSink) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Recent returns up to n of the most recently recorded spans, newest last.
func (t *TraceSink) Recent(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := len(t.ring)
	if n > size {
		n = size
	}
	out := make([]Span, 0, n)
	for i := size - n; i < size; i++ {
		rec := t.ring[(t.pos+i)%size]
		// Ring slots recycle their resource slices; returned spans must own
		// theirs.
		rec.Resources = append([]ResourceSpan(nil), rec.Resources...)
		out = append(out, rec)
	}
	return out
}

// Slowest returns up to n of the slowest spans recorded, slowest first.
func (t *TraceSink) Slowest(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > len(t.slow) {
		n = len(t.slow)
	}
	out := make([]Span, 0, n)
	for i := len(t.slow) - 1; i >= len(t.slow)-n; i-- {
		out = append(out, t.slow[i])
	}
	return out
}

// Report renders the slowest n spans, one per line.
func (t *TraceSink) Report(n int) string {
	spans := t.Slowest(n)
	if len(spans) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "slowest %d of %d spans (queue-wait vs service):\n", len(spans), t.Total())
	for _, sp := range spans {
		fmt.Fprintf(&b, "  %s\n", sp.String())
	}
	return b.String()
}

// OpStats holds one op kind's registry handles — family_total:kind,
// family_latency:kind and, where the layer counts errors,
// family_errors_total:kind — resolved once, so an op's completion does no
// string-keyed lookup.
type OpStats struct {
	kind  string
	total *Counter
	lat   *Histogram
	errs  *Counter // nil: the layer counts no errors
}

// NewOpStats resolves kind's handles in reg under family ("rados_op").
func NewOpStats(reg *Registry, family, kind string, countErrors bool) OpStats {
	st := OpStats{kind: kind, total: reg.Counter(family + "_total:" + kind), lat: reg.Histogram(family + "_latency:" + kind)}
	if countErrors {
		st.errs = reg.Counter(family + "_errors_total:" + kind)
	}
	return st
}

// Op is one in-flight op: its span (nil when sampling dropped it), its
// kind's handles and its start time. Latency runs on the op's own clock, so
// the registry stays exact for ops whose span was not sampled.
type Op struct {
	Span  *Span
	st    *OpStats
	start sim.Time
}

// Start opens the op's span, named after its kind, in sink; the caller tags
// it. Tracing observes only — it adds no virtual time.
func (st *OpStats) Start(p *sim.Proc, sink *TraceSink) Op {
	return Op{Span: sink.Start(p, st.kind), st: st, start: p.Now()}
}

// Finish closes the span (which recycles it: it must not be used
// afterwards) and records the op's count, latency and error.
func (op Op) Finish(p *sim.Proc, err error) {
	if op.Span != nil {
		op.Span.Err = err != nil
		op.Span.Finish(p)
	}
	op.st.total.Inc()
	op.st.lat.Add((p.Now() - op.start).Duration())
	if err != nil && op.st.errs != nil {
		op.st.errs.Inc()
	}
}
