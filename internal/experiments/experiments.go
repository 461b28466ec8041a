// Package experiments regenerates every table and figure in the paper's
// evaluation (§2.2, §6) and reports measured values alongside the paper's
// published numbers so shape agreement is auditable. Every experiment is a
// list of isolated runs (Runs): each builds a fresh simulated testbed,
// replays its workload and returns a row, and the experiment renders the
// rows as tables.
//
// Scales: sizes are reduced ~1000:1 from the paper (GB→MB); dedup ratios
// and relative performance are structure properties, not size properties.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/metrics"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
	"dedupstore/internal/workload"
)

// Scale adjusts dataset sizes for quick (bench) vs full (CLI) runs and
// carries the sweep that schedules the runs.
type Scale struct {
	// Data multiplies dataset sizes (1.0 = the default scaled sizes).
	Data float64

	// slot, when set, blocks until the sweep's pool grants a worker slot
	// and returns the function that frees it, which is handed the events the
	// run's engine dispatched. Runs then executes each run on its own
	// goroutine, holding a slot. Nil runs every run in order on the caller.
	slot func() (release func(events int64))
	// capture, when set, collects every run's trace sink in run order.
	capture *TraceCapture
}

// QuickScale keeps the package's own tests fast.
func QuickScale() Scale { return Scale{Data: 0.25} }

// WithPool returns a copy of s whose runs each hold a slot from acquire
// while they execute.
func (s Scale) WithPool(acquire func() (release func(events int64))) Scale {
	s.slot = acquire
	return s
}

// WithTraceCapture returns a copy of s whose runs record their trace sinks
// into a private capture.
func (s Scale) WithTraceCapture() (Scale, *TraceCapture) {
	tc := &TraceCapture{}
	s.capture = tc
	return s, tc
}

func (s Scale) bytes(n int64) int64 {
	if s.Data <= 0 {
		return n
	}
	return max(int64(float64(n)*s.Data), 1)
}

func (s Scale) count(n int) int { return s.countMin(n, 1) }

// countMin scales a count with a floor (some experiments need a minimum
// population to be meaningful, e.g. cross-object dedup needs several
// objects).
func (s Scale) countMin(n, min int) int {
	if s.Data <= 0 {
		return n
	}
	return max(int(float64(n)*s.Data), min)
}

// Testbed builds one run's simulated world. Only Runs hands one out, so
// every simulation an experiment builds is a scheduled run.
type Testbed struct {
	eng  *sim.Engine
	sink *metrics.TraceSink
}

// harness builds the run's one harness: a seeded engine and a testbed of
// hosts × osdsPerHost OSDs.
func (tb *Testbed) harness(seed int64, hosts, osdsPerHost int, opts ...rados.Option) *harness {
	if tb.eng != nil {
		panic("experiments: a run builds one harness")
	}
	tb.eng = sim.New(seed)
	c := rados.NewTestbed(tb.eng, simcost.Default(), hosts, osdsPerHost, opts...)
	tb.sink = c.Trace()
	return &harness{eng: tb.eng, c: c}
}

// Runs executes run once per case, each with its own Testbed, and returns
// the rows in case order. Under a Scale with a pool every run is a job
// holding one worker slot, and a panic in any run is re-raised here once
// all have finished; otherwise the runs execute in order on the caller. A
// run's engine is closed when it returns, so only its row and trace sink
// outlive it; the sinks join the Scale's capture in case order.
func Runs[C, R any](sc Scale, cases []C, run func(*Testbed, C) R) []R {
	rows := make([]R, len(cases))
	sinks := make([]*metrics.TraceSink, len(cases))
	events := make([]int64, len(cases))
	one := func(i int) {
		tb := &Testbed{}
		defer func() {
			sinks[i] = tb.sink
			if tb.eng != nil {
				events[i] = tb.eng.Stats().EventsDispatched
				tb.eng.Close()
			}
		}()
		rows[i] = run(tb, cases[i])
	}
	defer sc.capture.add(sinks)
	if sc.slot == nil {
		for i := range cases {
			one(i)
		}
		return rows
	}
	panics := make([]any, len(cases))
	var wg sync.WaitGroup
	for i := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := sc.slot()
			defer func() { release(events[i]) }()
			defer func() { panics[i] = recover() }()
			one(i)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return rows
}

// TraceCapture collects the trace sinks of every run under one Scale in run
// order, so the span report does not depend on which run finished first.
type TraceCapture struct {
	mu    sync.Mutex
	sinks []*metrics.TraceSink // nil for a run that built no harness
}

func (tc *TraceCapture) add(sinks []*metrics.TraceSink) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	tc.sinks = append(tc.sinks, sinks...)
	tc.mu.Unlock()
}

// Report renders the n slowest spans across every run, queue-wait vs.
// service time broken out per resource. Equal durations keep run order.
func (tc *TraceCapture) Report(n int) string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if n <= 0 {
		return ""
	}
	var all []metrics.Span
	var total int64
	for _, s := range tc.sinks {
		all = append(all, s.Slowest(n)...)
		total += s.Total()
	}
	if len(all) == 0 {
		return ""
	}
	slices.SortStableFunc(all, func(a, b metrics.Span) int { return cmp.Compare(b.Duration(), a.Duration()) })
	all = all[:min(len(all), n)]
	var b strings.Builder
	fmt.Fprintf(&b, "slowest %d of %d spans (queue-wait vs service):\n", len(all), total)
	for i := range all {
		fmt.Fprintf(&b, "  %s\n", all[i].String())
	}
	return b.String()
}

// harness is one run's simulated world.
type harness struct {
	eng *sim.Engine
	c   *rados.Cluster
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
	pool := must(h.c.CreatePool(rados.PoolConfig{Name: name, PGNum: 64, Redundancy: red}))
	return pool, h.c.NewGateway("client." + name)
}

// rawDevice builds a block device over a plain pool. objectSize <= 0 uses
// 1 MiB stripes (scaled from RBD's 4 MiB as datasets are scaled ~1000:1).
func (h *harness) rawDevice(name string, size, objectSize int64, red rados.Redundancy) *client.BlockDevice {
	pool, gw := h.rawPool("pool."+name, red)
	if objectSize <= 0 {
		objectSize = 1 << 20
	}
	dev := must(client.NewBlockDevice(name, size, objectSize, &client.RawBackend{GW: gw, Pool: pool}))
	dev.SetTrace(h.c.Trace())
	return dev
}

// dedupStore opens a dedup store with the paper's defaults, tweaked by mut.
func (h *harness) dedupStore(mut func(*core.Config)) *core.Store {
	cfg := core.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	s := must(core.Open(h.c, cfg))
	return s
}

// dedupDevice builds a block device over a dedup store client.
func (h *harness) dedupDevice(name string, size int64, s *core.Store) *client.BlockDevice {
	dev := must(client.NewBlockDevice(name, size, 1<<20, &client.DedupBackend{Client: s.Client("client." + name)}))
	dev.SetTrace(h.c.Trace())
	return dev
}

// startMonitor starts the heartbeat monitor of the fault experiments:
// 250 ms heartbeats, down after 1 s of silence, out after 2.5 s, and
// automatic recovery.
func (h *harness) startMonitor() *rados.Monitor {
	return h.c.StartMonitor(rados.MonitorConfig{
		Interval:    250 * time.Millisecond,
		Grace:       time.Second,
		OutAfter:    2500 * time.Millisecond,
		AutoRecover: true,
	})
}

// footprint is the bytes a dedup store keeps: its metadata and chunk
// pools, plus the cold chunk pool when tiering has one.
func (h *harness) footprint(s *core.Store) int64 {
	used := h.c.PoolStats(s.MetaPool()).StoredTotal() + h.c.PoolStats(s.ChunkPool()).StoredTotal()
	if cp := s.ColdChunkPool(); cp != nil {
		used += h.c.PoolStats(cp).StoredTotal()
	}
	return used
}

// must returns v, panicking on a setup error; a sweep reports the panic as
// the experiment's error.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check panics on a setup error.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// runFIO runs cfg against dev and panics if any op failed.
func runFIO(p *sim.Proc, dev *client.BlockDevice, cfg workload.FIOConfig) workload.FIOResult {
	res := workload.RunFIO(p, dev, cfg)
	if res.Errors > 0 {
		panic(fmt.Sprintf("fio %s on %s: %d errors", cfg.Pattern, dev.Name(), res.Errors))
	}
	return res
}

// Reconciled is what the post-mortem battery leaves behind. A step that
// fails reports -1 in every measure it feeds.
type Reconciled struct {
	AuditRepairs int64 // intents promoted + refs repaired + counts fixed
	LostChunks   int64 // bindings pointing at data that exists nowhere
	ScrubIssues  int
	StaleRefs    int64 // found by a second GC pass after the first cleaned up
}

// reconcile is the post-mortem battery after a fault window: let every
// reference-intent lease expire, then reconcile in both directions — audit
// (chunkmap→chunk), scrub, GC twice (chunk→chunkmap). A clean store ends
// with every measure 0.
func reconcile(p *sim.Proc, s *core.Store) (r Reconciled) {
	p.Sleep(3 * time.Second)
	if au, err := s.Audit(p); err == nil {
		r.AuditRepairs = au.IntentsPromoted + au.RefsRepaired + au.CountsFixed
		r.LostChunks = au.LostChunks
	} else {
		r.AuditRepairs, r.LostChunks = -1, -1
	}
	if rep, err := s.Scrub(p); err == nil {
		r.ScrubIssues = len(rep.Issues)
	} else {
		r.ScrubIssues = -1
	}
	r.StaleRefs = -1
	if _, err := s.GC(p); err == nil {
		if st, err := s.GC(p); err == nil {
			r.StaleRefs = st.StaleRefs
		}
	}
	return r
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

// table renders one row of cells per row.
func table[R any](title string, columns, notes []string, rows []R, cells func(R) []string) Table {
	t := Table{Title: title, Columns: columns, Notes: notes}
	for _, r := range rows {
		t.Rows = append(t.Rows, cells(r))
	}
	return t
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

func us(d time.Duration) string { return d.Round(time.Microsecond).String() }

// scaledDuration shortens measured phases for quick runs (floor 8s so
// timelines stay readable).
func scaledDuration(sc Scale, d time.Duration) time.Duration {
	return max(time.Duration(float64(d)*sc.Data), 8*time.Second)
}
