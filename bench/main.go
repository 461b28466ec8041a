// Command bench is the repository's two-clock benchmark: four long workloads
// over the dedup store, each reported on the host clock (what a run costs)
// and on the simulated clock (what the modelled system delivers), plus a
// per-layer table from a traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"dedupstore/internal/simcost"
)

// result is the line a run ends with: the contract BENCHMARK.json's command
// is held to.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detail line printed before the result: everything a reader
// needs to interpret it that the contract has no field for.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	SimDigest string            `json:"sim_digest"`
	Samples   map[string]int    `json:"samples"`      // latency samples per op kind
	Tail      map[string]metric `json:"highest_tail"` // highest percentile with >=10 samples beyond it
	Clock     map[string]string `json:"clock"`        // per end-to-end metric: host or sim
	Checks    []string          `json:"failed_checks"`
	Racing    int               `json:"racing_read_retries"` // see README "Known defects"
	Identity  map[string]string `json:"accounting_identity,omitempty"`
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "seed for every generated input")
		seconds   = flag.Float64("seconds", 10, "nominal host seconds of the timed phase (scales the fixed op counts)")
		trace     = flag.Int("trace", 0, "1: traced run, print the per-layer metrics instead of the end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run the sensitivity self-check and exit")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(runSelfcheck(*seed))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, name := range names {
		if findWorkload(name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			os.Exit(2)
		}
		p := params{workload: name, seed: *seed, seconds: *seconds, cost: simcost.Default()}
		if *trace == 1 {
			ok = runTraced(p) && ok
		} else {
			ok = runPlain(p) && ok
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runPlain is the untraced run: every end-to-end metric.
func runPlain(p params) bool {
	r := execute(p)
	rep := r.report()
	rep.Clock = map[string]string{}
	for _, def := range endToEndDefs {
		rep.Clock[def.name] = def.clock
	}
	return r.emit(rep, r.endToEnd())
}

func (r *run) report() report {
	rep := report{
		Workload: r.p.workload, Seed: r.p.seed, Seconds: r.p.seconds, Traced: r.p.traced,
		SimDigest: r.simDigest, Racing: r.racing,
		Samples: map[string]int{}, Tail: map[string]metric{},
	}
	for k, name := range opNames {
		n := len(r.log.lat[k])
		rep.Samples[name] = n
		if hp := highestPercentile(n); hp > 0 {
			v := percentile(sortedCopy(r.log.lat[k]), hp)
			rep.Tail["sim_"+name+"_p"+strconv.FormatFloat(hp, 'f', -1, 64)+"_us"] = metric{float64(v) / 1e3, "us"}
		}
	}
	return rep
}

// emit prints the report line and the result line, and returns whether the
// run was correct.
func (r *run) emit(rep report, m map[string]metric) bool {
	rep.Checks = r.failures
	res := result{len(r.failures) == 0, r.log.attempted, r.log.failed + int64(r.mismatches), m}
	for _, v := range []any{rep, res} {
		line, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		fmt.Println(string(line))
	}
	return res.Correct
}
