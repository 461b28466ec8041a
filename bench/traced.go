package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
)

// runTraced is the traced run: every per-layer metric. It runs the workload
// in this process with the span decorators, ring draining and a CPU profile
// on, runs the host-clock layer probes, and checks against untraced reference
// runs that tracing changed nothing the simulation can see.
func runTraced(p params) bool {
	// The untraced reference runs in child processes, once before and once
	// after the traced run, so that drift in machine speed over the minute
	// this takes is not booked as tracing overhead.
	reference := func() (report, result) {
		lines := bytes.Split(bytes.TrimSpace(untracedChild(p)), []byte("\n"))
		var rep report
		var res result
		if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &rep) != nil || json.Unmarshal(lines[len(lines)-1], &res) != nil {
			panic("bench: cannot parse the untraced child's output")
		}
		return rep, res
	}
	refRep, before := reference()
	r, m := tracedRun(p)
	_, after := reference()
	untracedWall := (before.Metrics["host_wall_s"].Value + after.Metrics["host_wall_s"].Value) / 2
	tracedWall := r.host1.wall.Sub(r.host0.wall).Seconds()
	m["sim.host_ns_per_event"] = metric{ratio(untracedWall*1e9, float64(r.kernel.EventsDispatched)), "ns"}
	m["metrics.trace_overhead_pct"] = metric{(tracedWall - untracedWall) / untracedWall * 100, "%"}

	rep := r.report()
	rep.Identity = r.identity()
	if refRep.SimDigest != r.simDigest {
		r.fail("traced digest %s differs from untraced %s: tracing perturbed the simulation, the per-layer table is void", r.simDigest[:12], refRep.SimDigest[:12])
	}
	return r.emit(rep, m)
}

// untracedChild runs this binary again as a plain run of the same workload,
// seed and length and returns its standard output. The child inherits
// standard error.
func untracedChild(p params) []byte {
	exe, err := os.Executable()
	if err != nil {
		panic(err)
	}
	cmd := exec.Command(exe, "-workload", p.workload, "-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		// a run that fails its checks exits 1 after printing which
		fmt.Fprintf(os.Stderr, "bench: untraced reference run: %v\n%s", err, out)
		os.Exit(1)
	}
	return out
}

// tracedRun is the in-process half of runTraced: the workload with tracing
// on, and the whole per-layer table except the two entries that need an
// untraced reference.
func tracedRun(p params) (*run, map[string]metric) {
	p.traced = true
	r := prepare(p)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		panic(err)
	}
	r.measure()
	pprof.StopCPUProfile()
	r.verify()

	m := r.layerTable()
	for name, v := range probes(findWorkload(p.workload).shape, p.seed) {
		m[name] = v
	}
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		r.fail("%v", err)
	}
	for _, mod := range profModules {
		m["hostprof."+mod+".cpu_share"] = metric{Value: shares[mod]}
	}
	for _, def := range layerDefs {
		v := m[def.name] // a layer this workload never enters reports 0
		m[def.name] = metric{v.Value, def.unit}
	}
	return r, m
}

// identityTolerance is how far two independent accounts of the same time may
// disagree before the traced run is marked incorrect.
const identityTolerance = 0.05

// identity checks the span accounting of the traced run. Per foreground op
// class, the BlockDevice-boundary span splits into client self time, gateway
// admission and the core span; two of the parts have a second, independent
// account inside the program (tenant queue-wait totals, the dedup op
// latency histograms), which must agree with the decorators.
func (r *run) identity() map[string]string {
	t := r.tr
	out := map[string]string{}
	agree := func(name string, ours, theirs float64) {
		off := 0.0
		if d := math.Max(math.Abs(ours), math.Abs(theirs)); d > 0 {
			off = math.Abs(ours-theirs) / d
		}
		if off <= identityTolerance {
			out[name] = fmt.Sprintf("ok (%.1f us vs %.1f us)", ours, theirs)
			return
		}
		out[name] = fmt.Sprintf("off by %.1f %% (%.1f us vs %.1f us)", off*100, ours, theirs)
		r.fail("accounting identity %s: %s", name, out[name])
	}
	for k, kind := range opNames {
		ops := float64(len(t.client[k]))
		if ops == 0 {
			continue
		}
		client := us(mean(t.client[k]))
		admit := us(float64(t.outer[k].ns-t.inner[k].ns) / ops)
		coreSpan := us(float64(t.inner[k].ns) / ops)
		self := client - admit - coreSpan
		out[kind] = fmt.Sprintf("client %.1f us = self %.1f + gateway %.1f + core %.1f", client, self, admit, coreSpan)
		if self < -identityTolerance*client {
			r.fail("accounting identity %s: backend spans exceed the client span (%s)", kind, out[kind])
		}
		hist := "dedup_op_latency:dedup." + kind
		progMean, _, n := r.layers1.hists[hist].since(r.layers0.hists[hist])
		agree("core."+kind+" decorator vs dedup_op_latency", us(ratio(float64(t.inner[k].ns), float64(t.inner[k].calls))), progMean)
		if n != t.inner[k].calls {
			r.fail("accounting identity: %d %s calls decorated, %d recorded by the program", t.inner[k].calls, kind, n)
		}
		if cs := t.coreSelf[k]; cs.calls > 0 {
			out["core."+kind+" children"] = fmt.Sprintf("rados child spans cover %.0f %% of the core span (self %.1f us)",
				100*(1-ratio(float64(cs.ns)/float64(cs.calls)/1e3, progMean)), float64(cs.ns)/float64(cs.calls)/1e3)
		}
	}
	if len(r.tenants) > 0 {
		var ours, theirs float64
		for k := range t.outer {
			ours += float64(t.outer[k].ns - t.inner[k].ns)
		}
		for _, tn := range r.tenants {
			theirs += float64(tn.Stats().QueueWait)
		}
		agree("gateway decorators vs tenant queue wait, total", us(ours), us(theirs))
	}
	return out
}
