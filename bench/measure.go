package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dedupstore/internal/core"
	"dedupstore/internal/sim"
)

// opKind indexes the foreground op log.
type opKind int

const (
	opWrite opKind = iota
	opRead
	numOpKinds
)

var opNames = [numOpKinds]string{"write", "read"}

// opLog collects what the foreground issuers saw at the client.BlockDevice
// boundary. Latencies are simulated nanoseconds, kept raw so percentiles are
// exact rather than histogram-bucketed.
type opLog struct {
	lat       [numOpKinds][]int64
	bytes     int64 // acknowledged bytes, reads and writes
	written   int64 // acknowledged bytes, writes only
	attempted int64
	failed    int64
	fgTime    sim.Time // simulated time during which foreground issuers ran
}

func (l *opLog) add(k opKind, lat sim.Time, n int, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		return
	}
	l.lat[k] = append(l.lat[k], int64(lat))
	l.bytes += int64(n)
	if k == opWrite {
		l.written += int64(n)
	}
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// ceil-based nearest rank, the same rule metrics.Histogram uses.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder is the set of percentiles a report may quote, each with the
// share of samples that lies beyond it.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// highestPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it among n samples, or 0 if none has.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, step := range tailLadder {
		if n >= 10*step.oneIn {
			best = step.p
		}
	}
	return best
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// hostSnap is the host-clock state at one edge of the timed phase.
type hostSnap struct {
	wall  time.Time
	cpu   time.Duration // user+sys of this process
	alloc uint64        // MemStats.TotalAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// takeHost snapshots the host clocks. ReadMemStats stops the world, so it
// is kept outside the wall-clock window at both edges.
func takeHost(opening bool) hostSnap {
	var ms runtime.MemStats
	if opening {
		runtime.ReadMemStats(&ms)
	}
	s := hostSnap{wall: time.Now(), cpu: cpuTime()}
	if !opening {
		runtime.ReadMemStats(&ms)
	}
	s.alloc = ms.TotalAlloc
	return s
}

// simSnap is the simulated-clock state at one edge of the timed phase.
type simSnap struct {
	now     sim.Time
	cpuBusy time.Duration
	engine  core.EngineStats
}

func (w *world) takeSim() simSnap {
	return simSnap{now: w.eng.Now(), cpuBusy: w.c.HostCPUBusy(), engine: w.s.Engine().Stats()}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of one run from the edges of its
// timed phase and its foreground op log.
func (r *run) endToEnd() map[string]metric {
	h0, h1, s0, s1 := r.host0, r.host1, r.sim0, r.sim1
	simElapsed := (s1.now - s0.now).Seconds()
	fgSeconds := r.log.fgTime.Seconds()
	m := map[string]metric{
		"setup_s":           {r.setupSeconds, "s"},
		"host_wall_s":       {h1.wall.Sub(h0.wall).Seconds(), "s"},
		"host_cpu_s":        {(h1.cpu - h0.cpu).Seconds(), "s"},
		"host_alloc_MB":     {float64(h1.alloc-h0.alloc) / 1e6, "MB"},
		"host_live_heap_MB": {float64(r.liveHeap) / 1e6, "MB"},
		"sim_elapsed_s":     {simElapsed, "s"},
		"sim_fg_MBps":       {float64(r.log.bytes) / 1e6 / fgSeconds, "MB/s"},
		"sim_dedup_MBps":    {float64(s1.engine.BytesFlushed-s0.engine.BytesFlushed) / 1e6 / simElapsed, "MB/s"},
		"sim_cpu_s":         {(s1.cpuBusy - s0.cpuBusy).Seconds(), "s"},
		"space_ratio":       {float64(r.liveBytes) / float64(r.usage.Total()), "ratio"},
	}
	for k, name := range opNames {
		s := sortedCopy(r.log.lat[k])
		m["sim_"+name+"_mean_us"] = metric{mean(s) / 1e3, "us"}
		m["sim_"+name+"_slowest2pct_us"] = metric{mean(s[len(s)-(len(s)+49)/50:]) / 1e3, "us"}
	}
	return m
}

// digest hashes every simulated statistic the run collected: the whole
// metric registry (all histogram buckets), pool and usage stats, engine and
// kernel counters, final simulated time and every foreground latency sample.
// Two runs of the same code at one seed must agree on it exactly; a
// host-only optimisation proves "the product did not change" by leaving it
// unchanged.
func (r *run) digest() string {
	h := sha256.New()
	w := r.w
	io.WriteString(h, w.c.DumpMetrics())
	fmt.Fprintf(h, "engine=%+v kernel=%+v\n", w.s.Engine().Stats(), r.kernel)
	fmt.Fprintf(h, "usage=%+v tier=%+v\n", r.usage, w.s.TierStats())
	for _, pool := range r.pools() {
		fmt.Fprintf(h, "pool=%+v\n", w.c.PoolStats(pool))
	}
	for _, t := range r.tenants {
		fmt.Fprintf(h, "tenant=%+v\n", t.Stats())
	}
	fmt.Fprintf(h, "sim0=%+v sim1=%+v log=%d/%d/%d/%d\n", r.sim0, r.sim1, r.log.attempted, r.log.failed, r.log.bytes, r.log.fgTime)
	for k := range r.log.lat {
		for _, v := range r.log.lat[k] {
			fmt.Fprintf(h, "%d,", v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
