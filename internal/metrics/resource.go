package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dedupstore/internal/sim"
)

// ResourceUsage is one resource's summary row.
type ResourceUsage struct {
	Name        string
	Capacity    int
	MaxQueue    int
	AvgQueue    float64
	Utilization float64
}

// ResourceMonitor lists a cluster's resources by name. Each resource
// integrates its own occupancy and queue timelines (sim.Resource.Occupancy);
// the monitor only reads them. Like the resources, it belongs to the
// goroutine that runs their engine.
type ResourceMonitor struct {
	byName map[string][]*sim.Resource
}

// NewResourceMonitor returns an empty monitor.
func NewResourceMonitor() *ResourceMonitor {
	return &ResourceMonitor{byName: make(map[string][]*sim.Resource)}
}

// Watch lists r under its name; watching a resource twice lists it once.
// Nil-safe on the monitor.
func (m *ResourceMonitor) Watch(r *sim.Resource) {
	if m != nil && !slices.Contains(m.byName[r.Name()], r) {
		m.byName[r.Name()] = append(m.byName[r.Name()], r)
	}
}

// Snapshot summarizes every watched resource over [0, now], one row per
// name, sorted by name. Resources that share a name form one row: their
// capacities and areas are summed, and its MaxQueue is the deepest of
// theirs.
func (m *ResourceMonitor) Snapshot(now sim.Time) []ResourceUsage {
	if m == nil {
		return nil
	}
	out := make([]ResourceUsage, 0, len(m.byName))
	for name, rs := range m.byName {
		u := ResourceUsage{Name: name}
		var held, queued int64
		for _, r := range rs {
			h, q, mq := r.Occupancy(now)
			held, queued = held+h, queued+q
			u.Capacity += r.Cap()
			u.MaxQueue = max(u.MaxQueue, mq)
		}
		if now > 0 {
			u.AvgQueue = float64(queued) / float64(now)
			u.Utilization = float64(held) / (float64(now) * float64(u.Capacity))
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FormatUsage renders resource rows as an aligned table.
func FormatUsage(rows []ResourceUsage) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %4s %9s %9s %6s\n", "resource", "cap", "max-queue", "avg-queue", "util%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %4d %9d %9.2f %6.1f\n", r.Name, r.Capacity, r.MaxQueue, r.AvgQueue, 100*r.Utilization)
	}
	return b.String()
}
