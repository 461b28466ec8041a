// Package harness sweeps registered experiments. Every experiment is a list
// of isolated runs (experiments.Runs), each with its own deterministic sim,
// and the sweep schedules runs, not experiments: each run holds one of
// Options.Workers slots while it executes, so the runs of one experiment
// proceed concurrently and a sweep must — and verifiably does — produce
// results bit-identical to a sequential one; only wall-clock changes.
// Reports stream back in canonical order regardless of completion order,
// wall-clock per experiment is recorded in a metrics.Registry, and results
// can be persisted as canonical JSON for golden-snapshot diffing
// (golden.go).
package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dedupstore/internal/experiments"
	"dedupstore/internal/metrics"
)

// Options configure one sweep.
type Options struct {
	// Workers bounds how many runs execute at once; <=0 uses GOMAXPROCS.
	// Workers == 1 is the sequential reference sweep.
	Workers int
	// Scale is forwarded to every experiment.
	Scale experiments.Scale
	// TraceN asks each experiment for its N slowest op spans (0 = off).
	TraceN int
	// Metrics, when set, records per-experiment and total wall-clock
	// (harness_experiment_wall:<name>, harness_total_wall histograms and
	// the harness_experiments_run counter).
	Metrics *metrics.Registry
}

// Report is one experiment's complete outcome.
type Report struct {
	Name   string
	Result experiments.Result
	Output string        // rendered tables, exactly what the CLI prints
	Trace  string        // slow-span report ("" when Options.TraceN == 0)
	Wall   time.Duration // host wall-clock summed over the experiment's runs
	Events int64         // sim events dispatched, summed over the experiment's runs
	Err    error         // non-nil if a run or the experiment panicked
}

// Run sweeps the experiments and invokes emit (if non-nil) once per
// experiment in input order — each report is emitted as soon as it and all
// its predecessors have finished, so output streams during the sweep but
// never reorders. The returned slice is in input order.
//
// Every experiment starts at once on its own goroutine, which holds no slot:
// only runs do. So the pool is exactly Workers wide and an experiment
// waiting for its runs cannot starve them.
func Run(exps []experiments.Experiment, opts Options, emit func(Report)) []Report {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	pool := newPool(workers, len(exps))
	done := make([]chan Report, len(exps))
	for i, exp := range exps {
		done[i] = make(chan Report, 1)
		go func() { done[i] <- runOne(exp, opts, pool, i) }()
	}
	out := make([]Report, 0, len(exps))
	for _, ch := range done {
		rep := <-ch
		if emit != nil {
			emit(rep)
		}
		out = append(out, rep)
	}
	if opts.Metrics != nil {
		opts.Metrics.Histogram("harness_total_wall").Add(time.Since(start))
		opts.Metrics.Gauge("harness_workers").Set(int64(workers))
	}
	return out
}

// runOne executes experiment i of the sweep, its runs drawing slots from
// pool and, when spans are asked for, recording into an isolated trace
// capture. It converts a panic into Report.Err so one broken experiment
// cannot take down the sweep.
func runOne(exp experiments.Experiment, opts Options, pool *pool, i int) (rep Report) {
	rep.Name = exp.Name
	var wall, events atomic.Int64
	defer func() {
		rep.Wall, rep.Events = time.Duration(wall.Load()), events.Load()
		if r := recover(); r != nil {
			rep.Err = fmt.Errorf("experiment %s panicked: %v", rep.Name, r)
		}
		if opts.Metrics != nil {
			opts.Metrics.Histogram("harness_experiment_wall:" + rep.Name).Add(rep.Wall)
			opts.Metrics.Counter("harness_experiments_run").Inc()
		}
	}()
	sc := opts.Scale.WithPool(func() func(int64) {
		pool.acquire(i)
		start := time.Now()
		return func(n int64) {
			wall.Add(int64(time.Since(start)))
			events.Add(n)
			pool.release()
		}
	})
	var capture *experiments.TraceCapture
	if opts.TraceN > 0 {
		sc, capture = sc.WithTraceCapture()
	}
	rep.Result = experiments.Result{Name: exp.Name, Tables: exp.Run(sc)}
	rep.Output = rep.Result.Output()
	if capture != nil {
		rep.Trace = capture.Report(opts.TraceN)
	}
	return rep
}

// pool bounds the runs executing at once to its slots. A freed slot goes to
// the next experiment in rotation with a run waiting, so the runs of a long
// experiment are not queued behind every short run listed before it.
type pool struct {
	mu      sync.Mutex
	free    int
	waiting [][]chan struct{} // per experiment, in arrival order
	next    int               // the experiment the next grant looks at first
}

func newPool(slots, exps int) *pool {
	return &pool{free: slots, waiting: make([][]chan struct{}, exps)}
}

// acquire blocks until a run of experiment exp holds a slot.
func (p *pool) acquire(exp int) {
	p.mu.Lock()
	if p.free > 0 {
		p.free--
		p.mu.Unlock()
		return
	}
	grant := make(chan struct{})
	p.waiting[exp] = append(p.waiting[exp], grant)
	p.mu.Unlock()
	<-grant
}

// release hands the slot to the next waiting run in rotation, or frees it.
func (p *pool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.waiting {
		i := (p.next + k) % len(p.waiting)
		if q := p.waiting[i]; len(q) > 0 {
			p.waiting[i], p.next = q[1:], i+1
			close(q[0])
			return
		}
	}
	p.free++
}

// WriteResults persists each successful report as canonical JSON at
// dir/<name>.json.
func WriteResults(dir string, reports []Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rep := range reports {
		if rep.Err != nil {
			continue
		}
		data, err := rep.Result.CanonicalJSON()
		if err != nil {
			return fmt.Errorf("marshal %s: %w", rep.Name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, rep.Name+".json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TimingTable summarizes per-experiment wall-clock, the sim events each
// experiment dispatched, and the pool speedup: sequential cost is the sum of
// the run walls, so sum/total is the concurrency win on this machine. The
// event counts are deterministic, so they show a change in an experiment's
// work that its wall clock would hide in noise.
func TimingTable(reports []Report, workers int, total time.Duration) experiments.Table {
	t := experiments.Table{
		Title:   fmt.Sprintf("Harness timing (%d workers)", workers),
		Columns: []string{"experiment", "wall", "events", "status"},
	}
	var sum time.Duration
	var events int64
	for _, rep := range reports {
		sum += rep.Wall
		events += rep.Events
		status := "ok"
		if rep.Err != nil {
			status = "ERROR: " + rep.Err.Error()
		}
		t.Rows = append(t.Rows, []string{rep.Name, rep.Wall.Round(time.Millisecond).String(), fmt.Sprint(rep.Events), status})
	}
	t.Rows = append(t.Rows, []string{"TOTAL", total.Round(time.Millisecond).String(), fmt.Sprint(events), ""})
	if total > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("sum of experiment walls %s, sweep wall %s: %.2fx speedup",
			sum.Round(time.Millisecond), total.Round(time.Millisecond), float64(sum)/float64(total)))
	}
	return t
}

// ExpTiming is one experiment's wall-clock and dispatched sim events in the
// JSON timing summary.
type ExpTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Events  int64   `json:"events"`
	OK      bool    `json:"ok"`
}

// TimingSummary is the machine-readable wall-clock summary CI uploads
// (BENCH_pr.json). Unlike experiment results it is inherently
// non-deterministic — that is its purpose.
type TimingSummary struct {
	Workers      int         `json:"workers"`
	TotalSeconds float64     `json:"total_seconds"`
	SumSeconds   float64     `json:"sum_seconds"`
	Speedup      float64     `json:"speedup"`
	Experiments  []ExpTiming `json:"experiments"`
}

// WriteTimingJSON persists a timing summary (canonical field order, 2-space
// indent, trailing newline) at path, creating parent directories as needed.
func WriteTimingJSON(path string, s TimingSummary) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := marshalCanonical(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Summarize builds the timing summary for a finished sweep.
func Summarize(reports []Report, workers int, total time.Duration) TimingSummary {
	s := TimingSummary{Workers: workers, TotalSeconds: total.Seconds()}
	var sum time.Duration
	for _, rep := range reports {
		sum += rep.Wall
		s.Experiments = append(s.Experiments, ExpTiming{Name: rep.Name, Seconds: rep.Wall.Seconds(), Events: rep.Events, OK: rep.Err == nil})
	}
	s.SumSeconds = sum.Seconds()
	if total > 0 {
		s.Speedup = float64(sum) / float64(total)
	}
	return s
}
