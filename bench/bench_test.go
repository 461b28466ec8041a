package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dedupstore/internal/metrics"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

func TestPercentile(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10 x10, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	// rank ceil(0.99*1000) = 990 of 1..1000
	thousand := make([]int64, 1000)
	for i := range thousand {
		thousand[i] = int64(i + 1)
	}
	if got := percentile(thousand, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	// at least ten samples must lie beyond the percentile
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]sim.Time{{30, 50}, {0, 20}, {10, 25}, {90, 200}}
	// union within [5,100): [5,25) + [30,50) + [90,100) = 20 + 20 + 10
	if got := covered(iv, 5, 100); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}

// TestDrain records spans into a 16-slot ring and drains it three ways: a
// partial fill, an exact continuation, and an overrun. Every span must be
// consumed at most once, and the overrun must be counted, not hidden.
func TestDrain(t *testing.T) {
	sink := metrics.NewTraceSink(16)
	tr := newTracer()
	tr.sink = sink
	eng := sim.New(1)
	record := func(n int) {
		eng.Go("spans", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				sp := sink.Start(p, "op")
				p.Sleep(time.Microsecond)
				sp.Finish(p)
			}
		})
		eng.Run()
	}
	check := func(step string, recorded, dropped int64) {
		t.Helper()
		tr.drain()
		if tr.recorded != recorded || tr.dropped != dropped {
			t.Fatalf("%s: recorded %d dropped %d, want %d and %d", step, tr.recorded, tr.dropped, recorded, dropped)
		}
		if got := int64(len(tr.spans["op"].dur)); got != recorded {
			t.Fatalf("%s: %d durations aggregated, want %d", step, got, recorded)
		}
		if tr.recorded+tr.dropped != sink.Total() {
			t.Fatalf("%s: recorded+dropped = %d, sink total %d", step, tr.recorded+tr.dropped, sink.Total())
		}
	}
	record(10)
	check("partial fill", 10, 0)
	tr.drain() // nothing new: nothing may be consumed twice
	check("idle drain", 10, 0)
	record(6)
	check("wrap to exactly full", 16, 0)
	record(40) // 24 of them are overwritten before the drain
	check("overrun", 32, 24)
}

func miniParams(workload string) params {
	return params{workload: workload, seed: 7, seconds: 0.2, cost: simcost.Default(), mini: true}
}

// TestWorkloadsDeterministicAndCorrect runs a miniature of every workload
// twice: it must pass all of its correctness checks and repeat its digest
// and every sim-clock metric exactly.
func TestWorkloadsDeterministicAndCorrect(t *testing.T) {
	for _, w := range workloads {
		a, b := execute(miniParams(w.name)), execute(miniParams(w.name))
		for _, r := range []*run{a, b} {
			if len(r.failures) > 0 {
				t.Errorf("%s: failed checks: %v", w.name, r.failures)
			}
		}
		if a.log.attempted == 0 || a.simDigest != b.simDigest {
			t.Errorf("%s: %d ops, digests %s and %s", w.name, a.log.attempted, a.simDigest, b.simDigest)
		}
		ma, mb := a.endToEnd(), b.endToEnd()
		for _, def := range endToEndDefs {
			va, ok := ma[def.name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s is not reported", w.name, def.name)
			}
			if def.clock == "sim" && va != mb[def.name] {
				t.Errorf("%s: sim-clock metric %s differs between two runs at one seed: %v vs %v", w.name, def.name, va, mb[def.name])
			}
			if va.Unit != def.unit {
				t.Errorf("%s: %s has unit %q, defined as %q", w.name, def.name, va.Unit, def.unit)
			}
		}
		if len(ma) != len(endToEndDefs) {
			t.Errorf("%s: %d end-to-end metrics reported, %d defined", w.name, len(ma), len(endToEndDefs))
		}
	}
}

// benchmarkJSON renders the BENCHMARK.json this package implements, one
// metric to a line so that run.sh can read the bounds with grep and sed.
func benchmarkJSON() string {
	comma := func(i, n int) string {
		if i < n-1 {
			return ","
		}
		return ""
	}
	var b strings.Builder
	b.WriteString("{\n  \"command\": [\"sh\", \"bench/bench.sh\"],\n  \"paths\": [\"bench\"],\n  \"run_seconds\": 10,\n  \"workloads\": [\n")
	for i, w := range workloads {
		fmt.Fprintf(&b, "    {\"name\": %q, \"why\": %q}%s\n", w.name, w.why, comma(i, len(workloads)))
	}
	b.WriteString("  ],\n  \"end_to_end\": [\n")
	for i, d := range endToEndDefs {
		fmt.Fprintf(&b, "    {\"name\": %q, \"unit\": %q, \"better\": %q, \"bound\": %g}%s\n", d.name, d.unit, d.better, d.bound, comma(i, len(endToEndDefs)))
	}
	b.WriteString("  ],\n  \"per_layer\": [\n")
	for i, d := range layerDefs {
		fmt.Fprintf(&b, "    {\"name\": %q, \"unit\": %q, \"better\": %q}%s\n", d.name, d.unit, d.better, comma(i, len(layerDefs)))
	}
	b.WriteString("  ]\n}")
	return b.String()
}

// TestBenchmarkJSON holds the checked-in BENCHMARK.json to what the package
// defines and prints: the text benchmarkJSON renders, well-formed names, and
// every per-layer name present in a traced run's output.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != benchmarkJSON() {
		t.Errorf("BENCHMARK.json differs from the definitions in defs.go and workloads.go; it should read:\n%s", benchmarkJSON())
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !wellFormed.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range file.Workloads {
		name(w.Name)
		if findWorkload(w.Name) == nil || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: unknown, or its why is not one line of at most 200 characters", w.Name)
		}
	}
	if len(file.Workloads) < 2 || len(file.Workloads) > 8 || len(file.EndToEnd) > 16 || len(file.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract", len(file.Workloads), len(file.EndToEnd), len(file.PerLayer))
	}
	for _, m := range file.EndToEnd {
		name(m.Name)
	}
	_, printed := tracedRun(miniParams("oltp-mixed"))
	for _, m := range file.PerLayer {
		name(m.Name)
		if _, ok := printed[m.Name]; !ok {
			t.Errorf("per-layer metric %s is in BENCHMARK.json but a traced run does not print it", m.Name)
		}
	}
	if len(printed) != len(file.PerLayer) {
		t.Errorf("a traced run prints %d metrics, BENCHMARK.json lists %d", len(printed), len(file.PerLayer))
	}
}
