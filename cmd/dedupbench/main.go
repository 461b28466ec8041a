// Command dedupbench regenerates every table and figure of the paper's
// evaluation on the simulated testbed and prints paper-vs-measured tables.
//
// Usage:
//
//	dedupbench [flags] [experiment ...]
//
// Experiments are named as in the paper (fig3, table1, ..., fig14) plus the
// studies beyond it (chaos, ablation, qos, ...); -list prints them all in
// presentation order. "all", the default, runs every one. Figure 5-(b) is
// a table of fig14, which owns the interference runs.
//
// Every experiment is a list of isolated runs, each with its own
// deterministic sim, and -workers (default GOMAXPROCS) bounds how many runs
// execute at once across the whole sweep, so stdout is byte-identical to a
// sequential -workers 1 run. Tables go to stdout; per-experiment wall-clock
// lines (the sum of the experiment's run walls) and the final timing table,
// which also lists the sim events each experiment's runs dispatched, go to
// stderr so machine-diffed output stays deterministic.
//
// Each experiment also writes a canonical JSON result to results/<name>.json
// (-results, empty to disable). -golden write|check snapshots those results
// under testdata/golden and fails with a per-cell diff on drift. -trace
// prints the N slowest op spans after each experiment (bare -trace = 10).
// -cpuprofile/-memprofile write pprof profiles of the sweep; -metrics dumps
// the harness's wall-clock metrics registry. Flags may appear after
// experiment names (`dedupbench fig10 -trace`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"dedupstore/internal/experiments"
	"dedupstore/internal/harness"
	"dedupstore/internal/metrics"
)

func main() { os.Exit(run()) }

func run() int {
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default scaled sizes; <1 faster)")
	list := flag.Bool("list", false, "list experiments and exit")
	trace := flag.Int("trace", 0, "print the N slowest trace spans after each experiment (bare -trace = 10)")
	workers := flag.Int("workers", 0, "runs executing at once (0 = GOMAXPROCS; 1 = sequential)")
	golden := flag.String("golden", "", "golden snapshot mode: 'write' to (re)generate, 'check' to diff and fail on drift")
	goldenDir := flag.String("goldendir", "testdata/golden", "directory holding golden snapshots")
	results := flag.String("results", "results", "directory for canonical JSON results (empty = don't write)")
	timing := flag.String("timing", "", "write a JSON wall-clock summary to this path")
	dumpMetrics := flag.Bool("metrics", false, "dump the harness metrics registry to stderr after the sweep")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the sweep to this path")
	flag.CommandLine.Parse(reorderArgs(os.Args[1:]))

	valid := experiments.Names()
	if *list {
		fmt.Println(strings.Join(valid, " "))
		return 0
	}
	if *golden != "" && *golden != "write" && *golden != "check" {
		fmt.Fprintf(os.Stderr, "dedupbench: -golden must be 'write' or 'check', got %q\n", *golden)
		return 2
	}

	names := flag.Args()
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = valid
	}
	var exps []experiments.Experiment
	for _, name := range names {
		exp, ok := experiments.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "dedupbench: unknown experiment %q\nvalid experiments: %s (or \"all\")\n",
				name, strings.Join(valid, " "))
			return 2
		}
		exps = append(exps, exp)
	}
	sort.SliceStable(exps, func(i, j int) bool {
		return indexOf(valid, exps[i].Name) < indexOf(valid, exps[j].Name)
	})

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dedupbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dedupbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	reg := metrics.NewRegistry()
	opts := harness.Options{
		Workers: *workers,
		Scale:   experiments.Scale{Data: *scale},
		TraceN:  *trace,
		Metrics: reg,
	}
	effWorkers := opts.Workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}

	start := time.Now()
	reports := harness.Run(exps, opts, func(rep harness.Report) {
		if rep.Err != nil {
			fmt.Fprintf(os.Stderr, "dedupbench: %v\n", rep.Err)
			return
		}
		fmt.Print(rep.Output)
		if rep.Trace != "" {
			fmt.Print(rep.Trace)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %s wall time]\n", rep.Name, rep.Wall.Round(time.Millisecond))
	})
	total := time.Since(start)

	failed := 0
	for _, rep := range reports {
		if rep.Err != nil {
			failed++
		}
	}
	fmt.Fprint(os.Stderr, harness.TimingTable(reports, effWorkers, total))

	if *results != "" {
		if err := harness.WriteResults(*results, reports); err != nil {
			fmt.Fprintf(os.Stderr, "dedupbench: writing results: %v\n", err)
			return 1
		}
	}
	if *timing != "" {
		if err := harness.WriteTimingJSON(*timing, harness.Summarize(reports, effWorkers, total)); err != nil {
			fmt.Fprintf(os.Stderr, "dedupbench: writing timing summary: %v\n", err)
			return 1
		}
	}
	if *dumpMetrics {
		fmt.Fprint(os.Stderr, reg.Dump())
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dedupbench: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dedupbench: %v\n", err)
			return 1
		}
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "dedupbench: %d experiment(s) failed\n", failed)
		return 1
	}

	switch *golden {
	case "write":
		var ok []experiments.Result
		for _, rep := range reports {
			ok = append(ok, rep.Result)
		}
		if err := harness.WriteGolden(*goldenDir, ok); err != nil {
			fmt.Fprintf(os.Stderr, "dedupbench: writing golden snapshots: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d golden snapshot(s) to %s\n", len(ok), *goldenDir)
	case "check":
		var got []experiments.Result
		for _, rep := range reports {
			got = append(got, rep.Result)
		}
		diffs, err := harness.CheckGolden(*goldenDir, got)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dedupbench: golden check: %v\n", err)
			return 1
		}
		if len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "golden check FAILED: %d difference(s) vs %s\n", len(diffs), *goldenDir)
			for _, d := range diffs {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			fmt.Fprintln(os.Stderr, "if the shift is intentional, regenerate with: dedupbench -scale <same> -golden write <experiments>")
			return 1
		}
		fmt.Fprintf(os.Stderr, "golden check ok: %d experiment(s) match %s\n", len(got), *goldenDir)
	}
	return 0
}

// reorderArgs lets flags appear after experiment names (Go's flag package
// stops at the first positional) and gives bare -trace its default of 10.
// An explicit count is accepted as -trace=N or as a bare integer following
// -trace.
func reorderArgs(args []string) []string {
	var flags, pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") || a == "-" {
			pos = append(pos, a)
			continue
		}
		if a == "--" {
			pos = append(pos, args[i+1:]...)
			break
		}
		name := strings.TrimLeft(a, "-")
		if !strings.Contains(name, "=") {
			switch name {
			case "trace":
				a = "-trace=10"
				if i+1 < len(args) {
					if _, err := strconv.Atoi(args[i+1]); err == nil {
						i++
						a = "-trace=" + args[i]
					}
				}
			case "list", "metrics", "h", "help":
				// boolean flags take no value
			default:
				// value-taking flag (-scale 0.5): keep the pair together
				if i+1 < len(args) {
					flags = append(flags, a)
					i++
					a = args[i]
				}
			}
		}
		flags = append(flags, a)
	}
	return append(flags, pos...)
}

func indexOf(order []string, name string) int {
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}
