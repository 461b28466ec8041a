package main

import (
	"fmt"
	"runtime"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/gateway"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
	"dedupstore/internal/store"
)

// params selects and shapes one run.
type params struct {
	workload string
	seed     int64
	seconds  float64        // nominal host length of the timed phase; scales op counts
	cost     simcost.Params // the modelled hardware (an input; selfcheck varies it)
	burn     time.Duration  // selfcheck: host CPU burned per backend call
	traced   bool
	mini     bool // tests and self-check: devices and warm-up an eighth the size
}

// run is one execution of one workload: set-up, timed phase, verification.
type run struct {
	p       params
	w       *world
	timed   func(p *sim.Proc)
	restore func(p *sim.Proc) // undoes faults the timed phase left in place, before verification; may be nil
	shadows []*shadow
	tenants []*gateway.Tenant
	mon     *rados.Monitor
	tr      *tracer // nil unless traced

	log        opLog
	mismatches int  // reads in the timed phase that returned wrong bytes: failed ops
	racing     int  // reads retried because the first try, racing a background mover, returned wrong bytes
	moversLive bool // flush engine or tier daemon may be rewriting objects under the reads
	maint      maintStats
	passes     []passTime
	failures   []string

	setupSeconds float64
	host0, host1 hostSnap
	sim0, sim1   simSnap
	liveHeap     uint64
	liveBytes    int64       // user bytes the model holds at the end of the timed phase
	usage        store.Usage // cluster-wide footprint at the same instant
	kernel       sim.Stats   // engine counters over the timed phase
	layers0      layerSnap   // taken in untraced runs too: reading a registry entry creates it, and the digest covers the registry
	layers1      layerSnap
	detectMS     float64 // crash to marked-down, maintain-recover only
	simDigest    string
}

// passTime is one maintenance pass on both clocks. The host figure is the
// wall time that elapsed while the pass ran, foreground issuers included.
type passTime struct {
	name string
	sim  time.Duration
	host time.Duration
}

// maintStats sums what the maintenance passes of the timed phase reported.
type maintStats struct {
	gc            core.GCStats
	scrubMB       float64
	scrubIssues   int
	auditBindings int64
	auditRepairs  int64
	auditLost     int64
}

func (m *maintStats) addGC(st core.GCStats) {
	m.gc.ChunksScanned += st.ChunksScanned
	m.gc.RefsChecked += st.RefsChecked
	m.gc.StaleRefs += st.StaleRefs
	m.gc.ChunksDeleted += st.ChunksDeleted
}

func (m *maintStats) addScrub(rep core.ScrubReport) {
	m.scrubMB += float64(rep.BytesVerified) / 1e6
	m.scrubIssues += len(rep.Issues)
}

func (m *maintStats) addAudit(st core.AuditStats) {
	m.auditBindings += st.BindingsChecked
	m.auditRepairs += st.IntentsPromoted + st.RefsRepaired + st.CountsFixed
	m.auditLost += st.LostChunks
}

func (r *run) fail(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// pass runs one maintenance step from the coordinating process and records
// how long it took on both clocks.
func (r *run) pass(name string, p *sim.Proc, fn func() error) {
	h0, s0 := time.Now(), p.Now()
	if err := fn(); err != nil {
		r.fail("%s pass: %v", name, err)
	}
	r.passes = append(r.passes, passTime{name, (p.Now() - s0).Duration(), time.Since(h0)})
}

// layerBackend is the benchmark's timing decorator around a
// client.ObjectBackend. It reads the simulated clock on entry and exit and
// schedules nothing, so it cannot change the simulation. burn, used by the
// self-check only, spins the host CPU per call.
type layerBackend struct {
	inner client.ObjectBackend
	tr    *tracer // nil: burn only
	outer bool    // outside tenant admission (else inside it)
	burn  time.Duration
}

// layerAcc sums one op kind's calls and simulated time.
type layerAcc struct {
	calls int64
	ns    int64
}

func (b *layerBackend) enter(p *sim.Proc) sim.Time {
	if b.burn > 0 {
		for t0 := time.Now(); time.Since(t0) < b.burn; {
		}
	}
	return p.Now()
}

// leave books the span. Nothing parks between the inner decorator's leave
// and the outer one's in the same call, so lastSpan is this call's.
func (b *layerBackend) leave(p *sim.Proc, k opKind, t0 sim.Time) {
	t := b.tr
	if t == nil || !t.on {
		return
	}
	dur := int64(p.Now() - t0)
	acc := &t.inner[k]
	if b.outer {
		acc = &t.outer[k]
		t.admit = append(t.admit, dur-t.lastSpan)
	} else {
		t.lastSpan = dur
	}
	acc.calls++
	acc.ns += dur
}

func (b *layerBackend) Write(p *sim.Proc, oid string, off int64, data []byte) error {
	t0 := b.enter(p)
	err := b.inner.Write(p, oid, off, data)
	b.leave(p, opWrite, t0)
	return err
}

func (b *layerBackend) Read(p *sim.Proc, oid string, off, length int64) ([]byte, error) {
	t0 := b.enter(p)
	data, err := b.inner.Read(p, oid, off, length)
	b.leave(p, opRead, t0)
	return data, err
}

func (b *layerBackend) Delete(p *sim.Proc, oid string) error { return b.inner.Delete(p, oid) }

// wrapBackend returns the backend decoration for a device of this run:
// bench -> client.BlockDevice -> [outer decorator] -> [tenant admission] ->
// [inner decorator] -> core. The decorators exist only in a traced run (or,
// outer only, when the self-check burns CPU).
func (r *run) wrapBackend(tn *gateway.Tenant) func(client.ObjectBackend) client.ObjectBackend {
	return func(be client.ObjectBackend) client.ObjectBackend {
		if r.tr != nil {
			be = &layerBackend{inner: be, tr: r.tr}
		}
		if tn != nil {
			be = tn.Backend(be)
		}
		if r.tr != nil || r.p.burn > 0 {
			be = &layerBackend{inner: be, tr: r.tr, outer: true, burn: r.p.burn}
		}
		return be
	}
}

func (r *run) pools() []*rados.Pool {
	s := r.w.s
	pools := []*rados.Pool{s.MetaPool(), s.ChunkPool()}
	if cold := s.ColdChunkPool(); cold != nil {
		pools = append(pools, cold)
	}
	return pools
}

// prepare sets one workload up, timing it: world, pools, input generation,
// prefill and settling.
func prepare(p params) *run {
	r := &run{p: p}
	if p.traced {
		r.tr = newTracer()
	}
	t0 := time.Now()
	findWorkload(p.workload).setup(r)
	r.setupSeconds = time.Since(t0).Seconds()
	return r
}

// growHeap makes the runtime map, and the kernel back, memory the timed phase
// will grow into, then gives it back to the allocator. A workload whose timed
// phase grows the heap by a gigabyte otherwise spends a third of it in
// first-touch page faults, a cost that on a shared box swings by tens of per
// cent from run to run and that a simulator running more than one experiment
// pays once. It is called from set-up and timed there.
func growHeap(bytes int) {
	ballast := make([]byte, bytes)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	runtime.KeepAlive(ballast)
}

// execute runs set-up, the timed phase and verification of one workload.
func execute(p params) *run {
	r := prepare(p)
	r.measure()
	r.verify()
	return r
}

// measure runs the timed phase between two snapshots of both clocks. The
// snapshots and the digest are taken from inside the driving process, where
// the simulated clock reads exactly the instant the phase ended.
func (r *run) measure() {
	w := r.w
	body := func(p *sim.Proc) {
		k0 := w.eng.Stats()
		r.sim0 = w.takeSim()
		r.layers0 = w.snapLayers()
		r.tr.start(w)
		r.host0 = takeHost(true)
		r.timed(p)
		r.host1 = takeHost(false)
		r.tr.stop()
		r.sim1 = w.takeSim()
		r.layers1 = w.snapLayers()
		r.kernel = statsDelta(w.eng.Stats(), k0)
		r.usage = w.c.TotalUsage()
		for _, sh := range r.shadows {
			for _, want := range sh.want {
				if len(want) > 0 {
					r.liveBytes += int64(sh.tab.size)
				}
			}
		}
		r.simDigest = r.digest()
	}
	runtime.GC()
	if r.tr != nil {
		r.tr.runSliced(w, body)
	} else {
		w.run(body)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
}

func statsDelta(a, b sim.Stats) sim.Stats {
	a.EventsScheduled -= b.EventsScheduled
	a.EventsDispatched -= b.EventsDispatched
	a.FastPath -= b.FastPath
	a.ProcsSpawned -= b.ProcsSpawned
	a.ProcsReused -= b.ProcsReused
	return a
}

// verify quiesces the store and checks every correctness condition: the
// foreground saw no failure or wrong byte, a full read-back equals the
// model, audit finds no lost chunk, scrub no issue, a second GC no stale
// reference, and the fingerprint index agrees with the stores.
func (r *run) verify() {
	w := r.w
	if r.log.failed > 0 {
		r.fail("%d of %d foreground ops failed", r.log.failed, r.log.attempted)
	}
	if r.mismatches > 0 {
		r.fail("%d timed-phase reads returned wrong bytes", r.mismatches)
	}
	if limit := racingCap(len(r.log.lat[opRead])); r.racing > limit {
		r.fail("%d timed-phase reads racing a flush or migration had to be retried, more than the %d the known defect accounts for", r.racing, limit)
	}
	// Scrub issues of the timed phase are a per-layer count, not a check: a
	// scrub pass reads a chunk's reference table and its count in two calls,
	// and a flush landing between them shows as a disagreement that is gone a
	// moment later (2 of seeds 1-28). The scrub below, on a quiet store, is
	// the check.
	if r.maint.auditLost > 0 {
		r.fail("timed-phase audit: %d lost chunks", r.maint.auditLost)
	}
	w.run(func(p *sim.Proc) {
		if r.restore != nil {
			r.restore(p)
		}
		w.s.Engine().DrainAndWait(p)
		p.Sleep(leaseSettle)
		if au, err := w.s.Audit(p); err != nil || au.LostChunks != 0 {
			r.fail("audit: %d lost chunks, err=%v", au.LostChunks, err)
		}
		if rep, err := w.s.Scrub(p); err != nil || !rep.Clean() {
			r.fail("scrub: %d issues, err=%v", len(rep.Issues), err)
		}
		if _, err := w.s.GC(p); err != nil {
			r.fail("gc: %v", err)
		}
		if st, err := w.s.GC(p); err != nil || st.StaleRefs != 0 {
			r.fail("second gc: %d stale refs, err=%v", st.StaleRefs, err)
		}
		for _, sh := range r.shadows {
			if n := sh.readBack(p); n > 0 {
				r.fail("read-back of %s: %d pages differ from the inputs", sh.dev.Name(), n)
			}
		}
	})
	if err := w.c.FPIndexVerify(); err != nil {
		r.fail("%v", err)
	}
}
