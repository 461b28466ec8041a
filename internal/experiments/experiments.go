// Package experiments regenerates every table and figure in the paper's
// evaluation (§2.2, §6): each Experiment builds a fresh simulated testbed,
// replays the corresponding workload, and reports measured values alongside
// the paper's published numbers so shape agreement is auditable.
//
// Scales: sizes are reduced ~1000:1 from the paper (GB→MB); dedup ratios
// and relative performance are structure properties, not size properties.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/metrics"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

// Scale adjusts dataset sizes for quick (bench) vs full (CLI) runs.
type Scale struct {
	// Data multiplies dataset sizes (1.0 = the default scaled sizes).
	Data float64

	// capture, when set, collects the trace sinks of every harness this
	// Scale builds, so concurrently running experiments keep their spans
	// separate. Nil falls back to the process-global sink list.
	capture *TraceCapture
}

// QuickScale keeps the package's own tests fast.
func QuickScale() Scale { return Scale{Data: 0.25} }

func (s Scale) bytes(n int64) int64 {
	if s.Data <= 0 {
		return n
	}
	v := int64(float64(n) * s.Data)
	if v < 1 {
		v = 1
	}
	return v
}

func (s Scale) count(n int) int { return s.countMin(n, 1) }

// countMin scales a count with a floor (some experiments need a minimum
// population to be meaningful, e.g. cross-object dedup needs several
// objects).
func (s Scale) countMin(n, min int) int {
	if s.Data <= 0 {
		return n
	}
	v := int(float64(n) * s.Data)
	if v < min {
		v = min
	}
	return v
}

// harness is one experiment's simulated world.
type harness struct {
	eng *sim.Engine
	c   *rados.Cluster
}

// TraceCapture accumulates the trace sinks of every harness built through
// one Scale, keeping span attribution correct when many experiments run
// concurrently. The zero value is ready to use.
type TraceCapture struct {
	mu    sync.Mutex
	sinks []*metrics.TraceSink
}

func (tc *TraceCapture) add(s *metrics.TraceSink) {
	tc.mu.Lock()
	tc.sinks = append(tc.sinks, s)
	tc.mu.Unlock()
}

// Report drains the captured sinks and renders the n slowest spans,
// queue-wait vs. service time broken out per resource.
func (tc *TraceCapture) Report(n int) string {
	tc.mu.Lock()
	sinks := tc.sinks
	tc.sinks = nil
	tc.mu.Unlock()
	return renderSlowest(sinks, n)
}

// WithTraceCapture returns a copy of s whose harnesses record their trace
// sinks into a private capture instead of the process-global list.
func (s Scale) WithTraceCapture() (Scale, *TraceCapture) {
	tc := &TraceCapture{}
	s.capture = tc
	return s, tc
}

// globalSinks is the legacy process-wide capture, used by harnesses built
// from a Scale without WithTraceCapture (tests, benches, direct callers).
var globalSinks TraceCapture

func (s Scale) newHarness(seed int64, hosts, osdsPerHost int, opts ...rados.Option) *harness {
	eng := sim.New(seed)
	c := rados.NewTestbed(eng, simcost.Default(), hosts, osdsPerHost, opts...)
	tc := s.capture
	if tc == nil {
		tc = &globalSinks
	}
	tc.add(c.Trace())
	return &harness{eng: eng, c: c}
}

// TraceReport merges the spans recorded by every harness built since the
// previous call (from Scales without a private capture) and renders the n
// slowest. The sink list is reset so successive experiments report
// independently.
func TraceReport(n int) string { return globalSinks.Report(n) }

func renderSlowest(sinks []*metrics.TraceSink, n int) string {
	if n <= 0 {
		return ""
	}
	var all []metrics.Span
	var total int64
	for _, s := range sinks {
		all = append(all, s.Slowest(n)...)
		total += s.Total()
	}
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Duration() > all[j].Duration() })
	if len(all) > n {
		all = all[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "slowest %d of %d spans (queue-wait vs service):\n", len(all), total)
	for i := range all {
		fmt.Fprintf(&b, "  %s\n", all[i].String())
	}
	return b.String()
}

// run executes fn as a sim process to completion.
func (h *harness) run(fn func(p *sim.Proc)) {
	h.eng.Go("exp", fn)
	h.eng.Run()
}

// runUntil executes fn and stops the clock at the limit.
func (h *harness) runUntil(limit sim.Time, fn func(p *sim.Proc)) {
	h.eng.Go("exp", fn)
	h.eng.RunUntil(limit)
}

// rawPool creates a plain pool and device-less gateway backend.
func (h *harness) rawPool(name string, red rados.Redundancy) (*rados.Pool, *rados.Gateway) {
	pool, err := h.c.CreatePool(rados.PoolConfig{Name: name, PGNum: 64, Redundancy: red})
	if err != nil {
		panic(err)
	}
	return pool, h.c.NewGateway("client." + name)
}

// rawDevice builds a block device over a plain pool. objectSize <= 0 uses
// 1 MiB stripes (scaled from RBD's 4 MiB as datasets are scaled ~1000:1).
func (h *harness) rawDevice(name string, size, objectSize int64, red rados.Redundancy) *client.BlockDevice {
	pool, gw := h.rawPool("pool."+name, red)
	if objectSize <= 0 {
		objectSize = 1 << 20
	}
	dev, err := client.NewBlockDevice(name, size, objectSize, &client.RawBackend{GW: gw, Pool: pool})
	if err != nil {
		panic(err)
	}
	dev.SetTrace(h.c.Trace())
	return dev
}

// dedupStore opens a dedup store with the paper's defaults, tweaked by mut.
func (h *harness) dedupStore(mut func(*core.Config)) *core.Store {
	cfg := core.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	s, err := core.Open(h.c, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// dedupDevice builds a block device over a dedup store client.
func (h *harness) dedupDevice(name string, size int64, s *core.Store) *client.BlockDevice {
	dev, err := client.NewBlockDevice(name, size, 1<<20, &client.DedupBackend{Client: s.Client("client." + name)})
	if err != nil {
		panic(err)
	}
	dev.SetTrace(h.c.Trace())
	return dev
}

// --- report formatting --------------------------------------------------------

// Table is a printable experiment result. The JSON form is canonical: field
// order is fixed, cells are the exact strings the CLI prints, and nothing
// wall-clock-dependent is included, so two runs at the same seed/scale
// marshal byte-identically.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func mb(v int64) string { return fmt.Sprintf("%.2f MB", float64(v)/1e6) }

// scaledDuration shortens measured phases for quick runs (floor 8s so
// timelines stay readable).
func scaledDuration(sc Scale, d time.Duration) time.Duration {
	v := time.Duration(float64(d) * sc.Data)
	if v < 8*time.Second {
		v = 8 * time.Second
	}
	return v
}
