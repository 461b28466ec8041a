package metrics

import (
	"fmt"
	"sort"
	"strings"
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

// Span is one recorded operation as a reader sees it: virtual start/end
// time, identity (op kind, pool, placement group, payload bytes) and the
// queue-wait vs. service-time breakdown across every sim FIFO resource the
// op touched. The sink stores spans as pointer-free records and builds Span
// values only when Recent or Slowest is called.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for a root, and for a child that finished after its parent
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

// spanRec is a span as the sink stores it: fixed-size and pointer-free, so
// a ring of thousands costs the garbage collector nothing to scan. Its
// resource entries sit in the sink's entry ring from position resAt on.
type spanRec struct {
	id, parent                    uint64
	start, end                    sim.Time
	bytes                         int64
	resAt                         uint64
	name, class, tenant, pool, pg sim.Label
	nres                          uint32
	err                           bool
}

func (r *spanRec) duration() time.Duration { return (r.end - r.start).Duration() }

// span is rec as a reader sees it; names is sim.LabelNames.
func (r *spanRec) span(names []string, res []ResourceSpan) Span {
	return Span{ID: r.id, Parent: r.parent, Name: names[r.name], Class: names[r.class], Tenant: names[r.tenant],
		Pool: names[r.pool], PG: names[r.pg], Bytes: r.bytes, Start: r.start, End: r.end, Err: r.err, Resources: res}
}

// resEntry is one resource's share of a recorded span.
type resEntry struct {
	res        sim.Label
	wait, hold time.Duration
}

func (e resEntry) span(names []string) ResourceSpan {
	return ResourceSpan{Resource: names[e.res], Wait: e.wait, Hold: e.hold}
}

// OpenSpan is a span in flight. It attaches to the executing sim.Proc as its
// Tracer, so resource waits, including those of child processes (replica
// writers, parallel chunk reads), accrue automatically, keyed by the
// resource itself; a nested Start records the enclosing span as parent.
// Every method is nil-safe, so a nil sink traces nothing.
type OpenSpan struct {
	rec       spanRec
	res       []openRes // in first-touch order
	sink      *TraceSink
	parent    *OpenSpan // the enclosing span at Start, while it is that span
	prev      sim.Tracer
	prevTrace uint64
}

type openRes struct {
	r          *sim.Resource
	wait, hold time.Duration
}

func (sp *OpenSpan) resource(r *sim.Resource) *openRes {
	for i := range sp.res {
		if sp.res[i].r == r {
			return &sp.res[i]
		}
	}
	sp.res = append(sp.res, openRes{r: r})
	return &sp.res[len(sp.res)-1]
}

// ResourceWait implements sim.Tracer. A report under another trace id comes
// from a process that outlived the span this object held then; it is
// dropped.
func (sp *OpenSpan) ResourceWait(r *sim.Resource, trace uint64, start, end sim.Time) {
	if trace != sp.rec.id || end <= start {
		return
	}
	sp.resource(r).wait += (end - start).Duration()
}

// ResourceHold implements sim.Tracer, as ResourceWait does.
func (sp *OpenSpan) ResourceHold(r *sim.Resource, trace uint64, start, end sim.Time) {
	if trace != sp.rec.id || end <= start {
		return
	}
	sp.resource(r).hold += (end - start).Duration()
}

// SetOp fills in the span's operation identity. Nil-safe.
func (sp *OpenSpan) SetOp(pool, pg sim.Label, bytes int64) *OpenSpan {
	if sp != nil {
		sp.rec.pool, sp.rec.pg, sp.rec.bytes = pool, pg, bytes
	}
	return sp
}

// SetBytes sets the span's payload size, for an op that learns it late.
// Nil-safe.
func (sp *OpenSpan) SetBytes(bytes int64) {
	if sp != nil {
		sp.rec.bytes = bytes
	}
}

// SetClass tags the span with the QoS class its I/O was admitted under.
// Nil-safe.
func (sp *OpenSpan) SetClass(class sim.Label) *OpenSpan {
	if sp != nil {
		sp.rec.class = class
	}
	return sp
}

// SetTenant attributes the span to a tenant identity. Nil-safe.
func (sp *OpenSpan) SetTenant(tenant sim.Label) *OpenSpan {
	if sp != nil {
		sp.rec.tenant = tenant
	}
	return sp
}

// SetErr marks the span failed when err is not nil. Nil-safe.
func (sp *OpenSpan) SetErr(err error) {
	if sp != nil {
		sp.rec.err = err != nil
	}
}

// Finish closes the span at the process's current virtual time, restores the
// parent tracer, and records the span in the sink. Must be called on the
// same process that Started it. Nil-safe. Finish returns the span to the
// sink's pool: the caller must not touch the span afterwards.
//
// A child folds its resource breakdown into its parent, so a parent op (a
// replicated write, say) reports the queue wait and service time of its
// nested phases too — but only while the parent is still open as the span
// the child started under. A child that outlives its parent is recorded as
// a root and folds nowhere: the parent's object may already serve another
// op.
func (sp *OpenSpan) Finish(p *sim.Proc) {
	if sp == nil {
		return
	}
	sp.rec.end = p.Now()
	p.SetTracer(sp.prev, sp.prevTrace)
	if parent := sp.parent; parent != nil {
		if parent.rec.id == sp.rec.parent {
			for _, r := range sp.res {
				pr := parent.resource(r.r)
				pr.wait += r.wait
				pr.hold += r.hold
			}
		} else {
			sp.rec.parent = 0
		}
	}
	t := sp.sink
	t.record(sp)
	sp.rec.id = 0 // closed: reports and children under the old id are stale
	sp.parent, sp.prev = nil, nil
	if len(t.free) < spanPoolCap {
		clear(sp.res)
		sp.res = sp.res[:0]
		t.free = append(t.free, sp)
	}
}

// TraceSink collects finished spans: a fixed-capacity ring of the most
// recent spans plus a bounded leaderboard of the slowest spans ever
// recorded, so post-run analysis sees both the tail and the recent shape
// without unbounded memory. A nil sink is tracing disabled: Start returns
// nil and every OpenSpan method no-ops.
//
// A sink belongs to the goroutine that runs its engine, like the resources
// it records; it has no lock. Read it from elsewhere only once that
// goroutine is done with it.
//
// Spans are pooled: Finish recycles the span object, and the ring stores
// pointer-free records whose strings are sim.Labels resolved by their
// owners, so steady-state tracing neither allocates nor looks a name up.
type TraceSink struct {
	ring    []spanRec // the most recent spans; once full, the oldest is at pos
	pos     int
	res     []resEntry // the ring's resource entries; power-of-two length
	resEnd  uint64     // position of the next entry; position i is res[i%len(res)]
	total   int64
	nextID  uint64
	slowCap int
	slow    []slowRec // sorted ascending by duration
	free    []*OpenSpan
}

// slowRec is a leaderboard entry; it owns its resource entries.
type slowRec struct {
	rec spanRec
	res []resEntry
}

// DefaultSlowest is the leaderboard size kept by NewTraceSink.
const DefaultSlowest = 64

// spanPoolCap bounds the sink's free list of recycled spans.
const spanPoolCap = 1024

// NewTraceSink returns a sink retaining the ringCap most recent spans
// (minimum 16) and the DefaultSlowest slowest.
func NewTraceSink(ringCap int) *TraceSink {
	ringCap = max(ringCap, 16)
	entries := 1
	for entries < 2*ringCap {
		entries *= 2
	}
	return &TraceSink{ring: make([]spanRec, 0, ringCap), res: make([]resEntry, entries), slowCap: DefaultSlowest}
}

// Start opens a span named name at the process's current virtual time and
// installs it as the process tracer. It interns name on every call: a hot
// path resolves its name once and calls StartLabel.
func (t *TraceSink) Start(p *sim.Proc, name string) *OpenSpan {
	if t == nil {
		return nil
	}
	return t.StartLabel(p, sim.Intern(name))
}

// StartLabel opens a span named name at the process's current virtual time
// and installs it as the process tracer. If the process is inside a span
// that is still open, the new span records it as parent. Returns nil (a
// no-op span) on a nil sink.
func (t *TraceSink) StartLabel(p *sim.Proc, name sim.Label) *OpenSpan {
	if t == nil {
		return nil
	}
	var sp *OpenSpan
	if n := len(t.free); n > 0 {
		sp = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		sp = &OpenSpan{sink: t}
	}
	t.nextID++
	sp.rec = spanRec{id: t.nextID, name: name, start: p.Now()}
	if tr, trace := p.Tracer(); tr != nil {
		// A process can hold the tracer of a span that has since finished
		// (it inherited it and outlived it); the id tells.
		if parent, ok := tr.(*OpenSpan); ok && parent.rec.id == trace {
			sp.parent, sp.rec.parent = parent, trace
		}
	}
	sp.prev, sp.prevTrace = p.SetTracer(sp, sp.rec.id)
	return sp
}

func (t *TraceSink) record(sp *OpenSpan) {
	t.total++
	rec := sp.rec
	rec.nres = uint32(len(sp.res))
	rec.resAt = t.resEnd
	// Ring insert. oldest is the first entry position a record that stays
	// in the ring still needs.
	var slot *spanRec
	oldest := t.resEnd
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, spanRec{})
		slot = &t.ring[len(t.ring)-1]
		oldest = t.ring[0].resAt
	} else {
		slot = &t.ring[t.pos]
		t.pos = (t.pos + 1) % len(t.ring)
		oldest = t.ring[t.pos].resAt
	}
	if need := t.resEnd + uint64(len(sp.res)) - oldest; need > uint64(len(t.res)) {
		t.growEntries(oldest, need)
	}
	mask := uint64(len(t.res) - 1)
	for _, r := range sp.res {
		t.res[t.resEnd&mask] = resEntry{res: r.r.Label(), wait: r.wait, hold: r.hold}
		t.resEnd++
	}
	*slot = rec
	// Leaderboard insert (ascending by duration, bounded). When full, the
	// fastest entry leaves and lends the newcomer its entry buffer.
	d := rec.duration()
	full := len(t.slow) == t.slowCap
	if full && d <= t.slow[0].rec.duration() {
		return
	}
	i := sort.Search(len(t.slow), func(i int) bool { return t.slow[i].rec.duration() >= d })
	var buf []resEntry
	if full {
		buf = t.slow[0].res[:0]
		copy(t.slow[:i-1], t.slow[1:i])
		i--
	} else {
		t.slow = append(t.slow, slowRec{})
		copy(t.slow[i+1:], t.slow[i:])
	}
	for _, r := range sp.res {
		buf = append(buf, resEntry{res: r.r.Label(), wait: r.wait, hold: r.hold})
	}
	t.slow[i] = slowRec{rec: rec, res: buf}
}

// growEntries enlarges the entry ring to at least need entries, keeping the
// positions from oldest on.
func (t *TraceSink) growEntries(oldest, need uint64) {
	size := uint64(len(t.res))
	for size < need {
		size *= 2
	}
	res := make([]resEntry, size)
	for i := oldest; i < t.resEnd; i++ {
		res[i&(size-1)] = t.res[i&uint64(len(t.res)-1)]
	}
	t.res = res
}

// Total reports how many spans have been recorded over the sink's lifetime.
func (t *TraceSink) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Recent returns up to n of the most recently recorded spans, newest last.
func (t *TraceSink) Recent(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	size := len(t.ring)
	n = min(n, size)
	names, mask := sim.LabelNames(), uint64(len(t.res)-1)
	out := make([]Span, 0, n)
	// The entries of the n spans are contiguous in the entry ring: one
	// allocation holds all of them.
	var all []ResourceSpan
	if n > 0 {
		first, last := &t.ring[(t.pos+size-n)%size], &t.ring[(t.pos+size-1)%size]
		all = make([]ResourceSpan, 0, last.resAt+uint64(last.nres)-first.resAt)
	}
	for i := size - n; i < size; i++ {
		rec := &t.ring[(t.pos+i)%size]
		var res []ResourceSpan
		if rec.nres > 0 {
			from := len(all)
			for j := range uint64(rec.nres) {
				all = append(all, t.res[(rec.resAt+j)&mask].span(names))
			}
			res = all[from:len(all):len(all)]
		}
		out = append(out, rec.span(names, res))
	}
	return out
}

// Slowest returns up to n of the slowest spans recorded, slowest first.
func (t *TraceSink) Slowest(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	n = min(n, len(t.slow))
	names := sim.LabelNames()
	out := make([]Span, 0, n)
	for i := len(t.slow) - 1; i >= len(t.slow)-n; i-- {
		var res []ResourceSpan
		if len(t.slow[i].res) > 0 {
			res = make([]ResourceSpan, len(t.slow[i].res))
			for j, e := range t.slow[i].res {
				res[j] = e.span(names)
			}
		}
		out = append(out, t.slow[i].rec.span(names, res))
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
	kind  sim.Label
	total *Counter
	lat   *Histogram
	errs  *Counter // nil: the layer counts no errors
}

// NewOpStats resolves kind's handles in reg under family ("rados_op").
func NewOpStats(reg *Registry, family, kind string, countErrors bool) OpStats {
	st := OpStats{kind: sim.Intern(kind), total: reg.Counter(family + "_total:" + kind), lat: reg.Histogram(family + "_latency:" + kind)}
	if countErrors {
		st.errs = reg.Counter(family + "_errors_total:" + kind)
	}
	return st
}

// Op is one in-flight op: its span (nil on a nil sink), its kind's handles
// and its start time. Latency runs on the op's own clock, never the span's.
type Op struct {
	Span  *OpenSpan
	st    *OpStats
	start sim.Time
}

// Start opens the op's span, named after its kind, in sink; the caller tags
// it. Tracing observes only — it adds no virtual time.
func (st *OpStats) Start(p *sim.Proc, sink *TraceSink) Op {
	return Op{Span: sink.StartLabel(p, st.kind), st: st, start: p.Now()}
}

// Finish closes the span (which recycles it: it must not be used
// afterwards) and records the op's count, latency and error.
func (op Op) Finish(p *sim.Proc, err error) {
	op.Span.SetErr(err)
	op.Span.Finish(p)
	op.st.total.Inc()
	op.st.lat.Add((p.Now() - op.start).Duration())
	if err != nil && op.st.errs != nil {
		op.st.errs.Inc()
	}
}
