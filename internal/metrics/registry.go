package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing named metric. Safe for concurrent
// use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count; a nil counter reads 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a named metric that can go up and down. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is the cluster-wide metric namespace: named counters, gauges and
// histograms, created on first use and dumped in Prometheus text format.
// Every layer of the stack (rados gateways, the dedup engine, the cache
// agent, recovery) registers its instruments here so one Dump shows the
// whole system. All methods are safe on a nil receiver — lookups return
// detached metrics — so instrumented code never needs a nil check.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return NewHistogram()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// sanitizeMetricName maps a registry name to the Prometheus charset
// [a-zA-Z0-9_:]; everything else becomes '_'.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Dump renders every registered metric as Prometheus exposition text,
// sorted by name. Histogram buckets are cumulative with `le` bounds in
// seconds, plus _sum (seconds) and _count series.
func (r *Registry) Dump() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	counterNames := sortedKeys(r.counters)
	gaugeNames := sortedKeys(r.gauges)
	histNames := sortedKeys(r.hists)
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, name := range counterNames {
		n := sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, counters[name].Value())
	}
	for _, name := range gaugeNames {
		n := sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, gauges[name].Value())
	}
	for _, name := range histNames {
		h := hists[name]
		n := sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		var cum int64
		for _, bk := range h.Buckets() {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%g\"} %d\n", n, bk.Le.Seconds(), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, int64(h.Count()))
		fmt.Fprintf(&b, "%s_sum %g\n", n, h.Sum().Seconds())
		fmt.Fprintf(&b, "%s_count %d\n", n, int64(h.Count()))
	}
	return b.String()
}

func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
