// Package harness runs registered experiments across a bounded worker pool.
// Every experiment owns an isolated deterministic sim, so running them
// concurrently must — and verifiably does — produce results bit-identical
// to a sequential sweep; only wall-clock changes. Reports stream back in
// canonical order regardless of completion order, wall-clock per experiment
// is recorded in a metrics.Registry, and results can be persisted as
// canonical JSON for golden-snapshot diffing (golden.go).
package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dedupstore/internal/experiments"
	"dedupstore/internal/metrics"
)

// Options configure one sweep.
type Options struct {
	// Workers bounds pool concurrency; <=0 uses GOMAXPROCS. Workers == 1 is
	// the sequential reference run.
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
	Wall   time.Duration // host wall-clock for this experiment
	Err    error         // non-nil if the experiment panicked
}

// Run executes the experiments over the worker pool and invokes emit (if
// non-nil) once per experiment in input order — each report is emitted as
// soon as it and all its predecessors have finished, so output streams
// during the sweep but never reorders. The returned slice is in input order.
func Run(exps []experiments.Experiment, opts Options, emit func(Report)) []Report {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}

	start := time.Now()
	done := make([]*Report, len(exps))
	var mu sync.Mutex
	cond := sync.NewCond(&mu)

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rep := runOne(exps[i], opts)
				mu.Lock()
				done[i] = &rep
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	go func() {
		for i := range exps {
			jobs <- i
		}
		close(jobs)
	}()

	out := make([]Report, 0, len(exps))
	for i := range exps {
		mu.Lock()
		for done[i] == nil {
			cond.Wait()
		}
		rep := *done[i]
		mu.Unlock()
		if emit != nil {
			emit(rep)
		}
		out = append(out, rep)
	}
	wg.Wait()
	if opts.Metrics != nil {
		opts.Metrics.Histogram("harness_total_wall").Add(time.Since(start))
		opts.Metrics.Gauge("harness_workers").Set(int64(workers))
	}
	return out
}

// runOne executes a single experiment with an isolated trace capture,
// converting a panic into Report.Err so one broken experiment cannot take
// down the sweep.
func runOne(exp experiments.Experiment, opts Options) (rep Report) {
	rep.Name = exp.Name()
	start := time.Now()
	defer func() {
		rep.Wall = time.Since(start)
		if r := recover(); r != nil {
			rep.Err = fmt.Errorf("experiment %s panicked: %v", rep.Name, r)
		}
		if opts.Metrics != nil {
			opts.Metrics.Histogram("harness_experiment_wall:" + rep.Name).Add(rep.Wall)
			opts.Metrics.Counter("harness_experiments_run").Inc()
		}
	}()
	sc, capture := opts.Scale.WithTraceCapture()
	defer capture.Close()
	rep.Result = exp.Run(sc)
	rep.Output = rep.Result.Output()
	if opts.TraceN > 0 {
		rep.Trace = capture.Report(opts.TraceN)
	}
	return rep
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

// TimingTable summarizes per-experiment wall-clock and the pool speedup:
// sequential cost is the sum of per-experiment walls, so sum/total is the
// concurrency win on this machine.
func TimingTable(reports []Report, workers int, total time.Duration) experiments.Table {
	t := experiments.Table{
		Title:   fmt.Sprintf("Harness timing (%d workers)", workers),
		Columns: []string{"experiment", "wall", "status"},
	}
	var sum time.Duration
	for _, rep := range reports {
		sum += rep.Wall
		status := "ok"
		if rep.Err != nil {
			status = "ERROR: " + rep.Err.Error()
		}
		t.Rows = append(t.Rows, []string{rep.Name, rep.Wall.Round(time.Millisecond).String(), status})
	}
	t.Rows = append(t.Rows, []string{"TOTAL", total.Round(time.Millisecond).String(), ""})
	if total > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("sum of experiment walls %s, sweep wall %s: %.2fx speedup",
			sum.Round(time.Millisecond), total.Round(time.Millisecond), float64(sum)/float64(total)))
	}
	return t
}

// ExpTiming is one experiment's wall-clock in the JSON timing summary.
type ExpTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
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
		s.Experiments = append(s.Experiments, ExpTiming{Name: rep.Name, Seconds: rep.Wall.Seconds(), OK: rep.Err == nil})
	}
	s.SumSeconds = sum.Seconds()
	if total > 0 {
		s.Speedup = float64(sum) / float64(total)
	}
	return s
}
