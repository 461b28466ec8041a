package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedupstore/internal/experiments"
	"dedupstore/internal/metrics"
)

// fakeExp builds a trivially fast experiment whose table depends only on its
// name, with one run that sleeps an optional artificial delay to force
// out-of-order completion.
func fakeExp(name string, delay time.Duration) experiments.Experiment {
	return experiments.Experiment{Name: name, Run: func(sc experiments.Scale) []experiments.Table {
		experiments.Runs(sc, []time.Duration{delay}, func(_ *experiments.Testbed, d time.Duration) struct{} {
			time.Sleep(d)
			return struct{}{}
		})
		return []experiments.Table{{
			Title:   "table " + name,
			Columns: []string{"k", "v"},
			Rows:    [][]string{{name, fmt.Sprintf("%.2f", sc.Data)}},
		}}
	}}
}

// TestRunEmitsInCanonicalOrder: the first experiment is the slowest, so with
// a wide pool later experiments finish first — emit order must still be
// input order, and streaming must deliver every report exactly once.
func TestRunEmitsInCanonicalOrder(t *testing.T) {
	exps := []experiments.Experiment{
		fakeExp("a", 120*time.Millisecond),
		fakeExp("b", 40*time.Millisecond),
		fakeExp("c", 0),
		fakeExp("d", 10*time.Millisecond),
	}
	var emitted []string
	reports := Run(exps, Options{Workers: 4}, func(rep Report) {
		emitted = append(emitted, rep.Name)
	})
	want := []string{"a", "b", "c", "d"}
	if strings.Join(emitted, ",") != strings.Join(want, ",") {
		t.Errorf("emit order = %v, want %v", emitted, want)
	}
	if len(reports) != len(exps) {
		t.Fatalf("got %d reports, want %d", len(reports), len(exps))
	}
	for i, rep := range reports {
		if rep.Name != want[i] {
			t.Errorf("report[%d] = %s, want %s", i, rep.Name, want[i])
		}
		if rep.Err != nil {
			t.Errorf("%s: unexpected error %v", rep.Name, rep.Err)
		}
		if !strings.Contains(rep.Output, "table "+rep.Name) {
			t.Errorf("%s: output missing its table:\n%s", rep.Name, rep.Output)
		}
	}
}

// TestPanicIsolation: a panic inside one run becomes its experiment's
// Report.Err without taking down the sweep or disturbing its neighbors.
func TestPanicIsolation(t *testing.T) {
	boom := experiments.Experiment{Name: "boom", Run: func(sc experiments.Scale) []experiments.Table {
		experiments.Runs(sc, []int{0, 1, 2}, func(_ *experiments.Testbed, i int) int {
			if i == 1 {
				panic("injected failure")
			}
			return i
		})
		return nil
	}}
	exps := []experiments.Experiment{fakeExp("a", 0), boom, fakeExp("b", 0)}
	reports := Run(exps, Options{Workers: 2}, nil)
	if reports[0].Err != nil || reports[2].Err != nil {
		t.Errorf("healthy experiments errored: %v / %v", reports[0].Err, reports[2].Err)
	}
	if reports[1].Err == nil || !strings.Contains(reports[1].Err.Error(), "injected failure") {
		t.Errorf("panic not converted to error: %v", reports[1].Err)
	}
}

// TestWorkerPoolBounded: no more than Options.Workers runs execute at once,
// across every experiment of the sweep.
func TestWorkerPoolBounded(t *testing.T) {
	var inFlight, peak atomic.Int32
	exps := make([]experiments.Experiment, 8)
	for i := range exps {
		exps[i] = experiments.Experiment{Name: fmt.Sprintf("e%d", i), Run: func(sc experiments.Scale) []experiments.Table {
			experiments.Runs(sc, []int{0, 1, 2}, func(*experiments.Testbed, int) struct{} {
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				inFlight.Add(-1)
				return struct{}{}
			})
			return nil
		}}
	}
	Run(exps, Options{Workers: 2}, nil)
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d runs exceeds pool size 2", p)
	}
}

// TestRunsOfOneExperimentOverlap: an experiment's runs execute concurrently,
// and the experiment holds no slot while it waits for them, so four runs
// that each wait for all four to arrive complete at Workers 4.
func TestRunsOfOneExperimentOverlap(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(4)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	exp := experiments.Experiment{Name: "rendezvous", Run: func(sc experiments.Scale) []experiments.Table {
		experiments.Runs(sc, []int{0, 1, 2, 3}, func(*experiments.Testbed, int) struct{} {
			arrived.Done()
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				panic("runs did not overlap")
			}
			return struct{}{}
		})
		return nil
	}}
	if rep := Run([]experiments.Experiment{exp}, Options{Workers: 4}, nil)[0]; rep.Err != nil {
		t.Fatal(rep.Err)
	}
}

// TestParallelMatchesSequentialTwoSeeds is the harness's core guarantee:
// because every run owns an isolated sim, a parallel sweep must be
// bit-identical to the sequential reference — rendered output, canonical
// JSON and span report — across different chaos seeds, although runs now
// finish in any order.
func TestParallelMatchesSequentialTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	sc := experiments.Scale{Data: 0.05}
	chaosAt := func(seed int64) experiments.Experiment {
		return experiments.Experiment{Name: fmt.Sprintf("chaos-seed%d", seed), Run: func(sc experiments.Scale) []experiments.Table {
			return experiments.ChaosTables(experiments.ChaosSeeded(sc, seed))
		}}
	}
	table2, _ := experiments.Lookup("table2")
	fig5a, _ := experiments.Lookup("fig5a")
	exps := []experiments.Experiment{chaosAt(811), chaosAt(977), table2, fig5a}
	// Enough spans that equal durations from different runs meet in the
	// report, so its order depends on reading the runs in run order.
	seq := Run(exps, Options{Workers: 1, Scale: sc, TraceN: 500}, nil)
	par := Run(exps, Options{Workers: 4, Scale: sc, TraceN: 500}, nil)
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s errored: seq=%v par=%v", seq[i].Name, seq[i].Err, par[i].Err)
		}
		if seq[i].Output != par[i].Output {
			t.Errorf("%s: rendered output differs between sequential and parallel runs", seq[i].Name)
		}
		sj, err1 := seq[i].Result.CanonicalJSON()
		pj, err2 := par[i].Result.CanonicalJSON()
		if err1 != nil || err2 != nil {
			t.Fatalf("marshal: %v / %v", err1, err2)
		}
		if string(sj) != string(pj) {
			t.Errorf("%s: canonical JSON differs between sequential and parallel runs", seq[i].Name)
		}
		if seq[i].Trace != par[i].Trace {
			t.Errorf("%s: trace report differs between sequential and parallel runs", seq[i].Name)
		}
	}
	if seq[3].Trace == "" {
		t.Error("fig5a: no span report to compare")
	}
}

// TestWallClockInstrumentation: the harness records per-experiment and total
// wall-clock in the provided metrics registry.
func TestWallClockInstrumentation(t *testing.T) {
	reg := metrics.NewRegistry()
	exps := []experiments.Experiment{fakeExp("a", 5*time.Millisecond), fakeExp("b", 0)}
	Run(exps, Options{Workers: 2, Metrics: reg}, nil)
	if n := reg.Counter("harness_experiments_run").Value(); n != 2 {
		t.Errorf("harness_experiments_run = %d, want 2", n)
	}
	if reg.Histogram("harness_experiment_wall:a").Count() != 1 {
		t.Error("per-experiment wall histogram not recorded")
	}
	if reg.Histogram("harness_total_wall").Count() != 1 {
		t.Error("total wall histogram not recorded")
	}
	if reg.Gauge("harness_workers").Value() != 2 {
		t.Error("worker gauge not recorded")
	}
}

// TestTimingSummaryAndResults: Summarize/TimingTable/WriteResults and the
// timing JSON round-trip.
func TestTimingSummaryAndResults(t *testing.T) {
	dir := t.TempDir()
	exps := []experiments.Experiment{fakeExp("a", 10*time.Millisecond), fakeExp("b", 10*time.Millisecond)}
	start := time.Now()
	reports := Run(exps, Options{Workers: 2}, nil)
	total := time.Since(start)

	sum := Summarize(reports, 2, total)
	if sum.Workers != 2 || len(sum.Experiments) != 2 || sum.Speedup <= 0 {
		t.Errorf("bad summary: %+v", sum)
	}
	path := filepath.Join(dir, "sub", "BENCH.json")
	if err := WriteTimingJSON(path, sum); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"total_seconds"`) || !strings.HasSuffix(string(data), "\n") {
		t.Errorf("timing JSON malformed:\n%s", data)
	}

	tab := TimingTable(reports, 2, total)
	rendered := tab.String()
	for _, want := range []string{"Harness timing", "a", "b", "TOTAL", "speedup"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("timing table missing %q:\n%s", want, rendered)
		}
	}

	if err := WriteResults(dir, reports); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.json", "b.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("result file %s not written: %v", name, err)
		}
	}
}

// TestSweepLeavesNoGoroutines: every run closes the engine it ran on, so
// the daemons and pooled processes of a finished experiment do not outlive
// it as parked goroutines.
func TestSweepLeavesNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	base := runtime.NumGoroutine()
	table2, _ := experiments.Lookup("table2")
	reports := Run([]experiments.Experiment{table2}, Options{Workers: 1, Scale: experiments.Scale{Data: 0.05}}, nil)
	if reports[0].Err != nil {
		t.Fatal(reports[0].Err)
	}
	got := runtime.NumGoroutine()
	for i := 0; i < 100 && got > base; i++ {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base {
		t.Fatalf("%d goroutines after the sweep, %d before", got, base)
	}
}
