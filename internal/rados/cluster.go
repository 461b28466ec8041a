// Package rados implements the decentralized, shared-nothing scale-out
// object store the paper targets (§2.1): CRUSH-placed placement groups over
// OSDs, primary-copy replication, erasure-coded pools, per-object compound
// transactions with xattr/omap metadata, and recovery/rebalancing engines.
// It plays the role Ceph RADOS plays in the paper's implementation, with
// device and network timing supplied by the discrete-event simulation.
package rados

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dedupstore/internal/crush"
	"dedupstore/internal/ec"
	"dedupstore/internal/fpindex"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
	"dedupstore/internal/store"
)

// Errors returned by cluster operations.
var (
	ErrNoOSD        = errors.New("rados: no OSD available for placement group")
	ErrOSDDown      = errors.New("rados: acting OSD down (request timed out)")
	ErrPoolExists   = errors.New("rados: pool already exists")
	ErrPoolNotFound = errors.New("rados: pool not found")
	ErrNotFound     = store.ErrNotFound
)

// IsUnavailable reports whether err is a transient cluster-availability
// error — a dead acting OSD or an unservable PG — that a client should
// retry after a backoff, as opposed to a permanent error like ErrNotFound.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrOSDDown) || errors.Is(err, ErrNoOSD)
}

// RetryPolicy bounds the timeout/backoff loop a caller runs while the
// cluster reports transient unavailability (a crashed acting primary the
// heartbeat monitor has not yet marked down, or a PG below write quorum):
// exponential backoff from Base, capped at Max, up to MaxAttempts tries.
type RetryPolicy struct {
	MaxAttempts int
	Base        time.Duration
	Max         time.Duration
}

// Retry runs fn until it succeeds, fails with an error IsUnavailable does not
// recognise, or has been tried MaxAttempts times, sleeping the backoff
// between tries; onRetry, if non-nil, is told of each retry before its
// sleep. It returns fn's last error: IsUnavailable of it means the attempts
// ran out.
func (pol RetryPolicy) Retry(p *sim.Proc, fn func() error, onRetry func()) error {
	delay := pol.Base
	for attempt := 1; ; attempt++ {
		if err := fn(); err == nil || !IsUnavailable(err) || attempt >= pol.MaxAttempts {
			return err
		}
		if onRetry != nil {
			onRetry()
		}
		p.Sleep(delay)
		delay = min(2*delay, pol.Max)
	}
}

// RedundancyKind selects the pool redundancy scheme.
type RedundancyKind int

// Redundancy kinds.
const (
	Replicated RedundancyKind = iota + 1
	Erasure
)

// Redundancy describes a pool's data protection scheme (§1: deduplication
// must preserve the underlying redundancy scheme, replication or EC).
type Redundancy struct {
	Kind RedundancyKind
	Size int // replica count for Replicated
	K, M int // data/parity shards for Erasure
}

// ReplicatedN returns replication with n copies.
func ReplicatedN(n int) Redundancy { return Redundancy{Kind: Replicated, Size: n} }

// ErasureKM returns EC with k data and m parity shards.
func ErasureKM(k, m int) Redundancy { return Redundancy{Kind: Erasure, K: k, M: m} }

// Width is the number of OSDs a PG needs under this scheme.
func (r Redundancy) Width() int {
	if r.Kind == Erasure {
		return r.K + r.M
	}
	return r.Size
}

// Overhead is the raw-to-logical space multiplier (2 for 2x replication,
// 1.5 for EC 2+1).
func (r Redundancy) Overhead() float64 {
	if r.Kind == Erasure {
		return float64(r.K+r.M) / float64(r.K)
	}
	return float64(r.Size)
}

func (r Redundancy) String() string {
	if r.Kind == Erasure {
		return fmt.Sprintf("ec-%d+%d", r.K, r.M)
	}
	return fmt.Sprintf("rep-%d", r.Size)
}

// PoolConfig configures a pool at creation.
type PoolConfig struct {
	Name       string
	PGNum      uint32
	Redundancy Redundancy
}

// Pool is a named object namespace with its own redundancy scheme — the
// mechanism the design uses to separate the metadata pool from the chunk
// pool (§4.2), each with its own redundancy and placement.
type Pool struct {
	ID    uint64
	Name  string
	PGNum uint32
	Red   Redundancy

	label    sim.Label   // Name, as trace spans carry it
	pgLabels []sim.Label // each PG's name ("1.2a") as a span label, resolved on first use

	codec              *ec.Codec          // lazily built EC codec (Erasure pools only)
	lockWait, lockHold *metrics.Histogram // rados_pg_lock_wait:<Name>, rados_pg_lock_hold:<Name>
	replApply          *metrics.Histogram // rados_replica_apply:<Name>: commit to last replica applied
}

// Cluster is the distributed object store. All blocking methods must be
// called from within a sim.Proc.
type Cluster struct {
	eng  *sim.Engine
	cost simcost.Params
	cmap *crush.Map

	hosts     map[string]*host
	osds      map[int]*osd
	pools     map[string]*Pool
	poolsByID map[uint64]*Pool
	nextPool  uint64

	pgLocks map[crush.PG]*sim.Resource

	// Per-epoch placement caches: resolving a PG's OSD set happens on every
	// I/O, so acting/want memoize their []*osd results until a CRUSH map
	// mutation bumps the epoch. The cached slices are shared — read-only.
	pgResEpoch  int
	actCache    map[crush.PG][]*osd
	wantCache   map[crush.PG][]*osd
	osdSeq      []*osd // allOSDs() cache, id order
	osdSeqEpoch int

	// head maps each live object to the version of its last acknowledged
	// mutation; a delete drops the entry. A copy whose version differs is
	// stale (see current). lastVersion is the counter versions are minted
	// from (nextVersion).
	head        map[store.Key]uint64
	lastVersion uint64

	storeOpts []store.Option

	// nicSlow scales NIC serialization per host (>1 = degraded link),
	// keyed by resource name ("nic.host0").
	nicSlow map[string]float64

	// Stats counters.
	fgOps     *OpCounter
	recovered int64 // bytes moved by recovery

	// Observability: cluster-wide metric registry, per-op trace sink, and
	// queue-depth/utilization monitor over every FIFO resource.
	reg  *metrics.Registry
	sink *metrics.TraceSink
	rmon *metrics.ResourceMonitor

	// qsched shares one QoS config across every OSD disk and host NIC
	// scheduler, so one weight update retunes the whole cluster.
	qsched *qos.Group
	// qwait pre-resolves the per-class queue-wait histograms so the
	// admission hot path avoids a registry lookup per I/O.
	qwait [qos.NumClasses]*metrics.Histogram
	// ops pre-resolves the per-kind gateway op handles (count, latency,
	// errors) the same way: resolve the metric name once at construction,
	// then each op completion is a few atomic ops with no map lookups.
	ops struct {
		write, writeFull, del, read, mutate metrics.OpStats
	}
	// fpLookupLat/fpMismatch are the fingerprint-probe handles, resolved
	// when EnableFPIndex arms the index.
	fpLookupLat *metrics.Histogram
	fpMismatch  *metrics.Counter
	// netLocal counts the bytes netSend delivered without a link (both ends
	// on one host).
	netLocal *metrics.Counter

	// fpPool is the id of the pool fronted by per-OSD fingerprint indexes
	// (0 = disabled); fpCfg is the index configuration shared by all OSDs.
	fpPool uint64
	fpCfg  fpindex.Config
}

// Option configures a Cluster.
type Option func(*Cluster)

// WithStoreOptions passes options (e.g. a compression footprint model) to
// every OSD store created by AddOSD.
func WithStoreOptions(opts ...store.Option) Option {
	return func(c *Cluster) { c.storeOpts = opts }
}

// New creates an empty cluster on the given simulation engine and cost
// model.
func New(eng *sim.Engine, cost simcost.Params, opts ...Option) *Cluster {
	c := &Cluster{
		eng:       eng,
		cost:      cost,
		cmap:      crush.NewMap(),
		hosts:     make(map[string]*host),
		osds:      make(map[int]*osd),
		pools:     make(map[string]*Pool),
		poolsByID: make(map[uint64]*Pool),
		pgLocks:   make(map[crush.PG]*sim.Resource),
		nicSlow:   make(map[string]float64),
		head:      make(map[store.Key]uint64),
		fgOps:     NewOpCounter(eng),
		reg:       metrics.NewRegistry(),
		sink:      metrics.NewTraceSink(4096),
		rmon:      metrics.NewResourceMonitor(),
		qsched:    qos.NewGroup(qos.DefaultConfig()),
	}
	for _, o := range opts {
		o(c)
	}
	for cls := qos.Class(0); cls < qos.NumClasses; cls++ {
		c.qwait[cls] = c.reg.Histogram("qos_queue_wait:" + cls.String())
	}
	c.qsched.OnAdmit = func(_ string, cls qos.Class, wait time.Duration, queued bool) {
		if queued {
			c.qwait[cls].Add(wait)
		}
	}
	c.ops.write = metrics.NewOpStats(c.reg, "rados_op", "rados.write", true)
	c.ops.writeFull = metrics.NewOpStats(c.reg, "rados_op", "rados.writefull", true)
	c.ops.del = metrics.NewOpStats(c.reg, "rados_op", "rados.delete", true)
	c.ops.read = metrics.NewOpStats(c.reg, "rados_op", "rados.read", true)
	c.ops.mutate = metrics.NewOpStats(c.reg, "rados_op", "rados.mutate", true)
	c.netLocal = c.reg.Counter("rados_net_local_bytes_total")
	return c
}

// Engine returns the simulation engine the cluster runs on.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Cost returns the hardware cost model.
func (c *Cluster) Cost() simcost.Params { return c.cost }

// Map returns the cluster's CRUSH map (live; mutations affect placement).
func (c *Cluster) Map() *crush.Map { return c.cmap }

// hostCores is every host's CPU core count: the paper's testbed servers
// (Xeon E5-2690, §6.1).
const hostCores = 12

// AddHost registers a server with hostCores CPU cores.
func (c *Cluster) AddHost(name string) {
	if _, ok := c.hosts[name]; ok {
		return
	}
	h := &host{
		name: name,
		nic:  sim.NewResource("nic."+name, 1),
		cpu:  sim.NewResource("cpu."+name, hostCores),
	}
	h.nicSched = c.qsched.NewScheduler(h.nic)
	c.rmon.Watch(h.nic)
	c.rmon.Watch(h.cpu)
	c.hosts[name] = h
}

// AddOSD registers an OSD on a host (host must exist).
func (c *Cluster) AddOSD(id int, hostName string, weight float64) error {
	h, ok := c.hosts[hostName]
	if !ok {
		return fmt.Errorf("rados: unknown host %q", hostName)
	}
	if err := c.cmap.AddOSD(id, hostName, weight); err != nil {
		return err
	}
	o := &osd{
		id:    id,
		host:  h,
		store: store.New(c.storeOpts...),
		disk:  sim.NewResource(fmt.Sprintf("disk.osd%d", id), max(c.cost.DiskShards, 1)),
		slow:  1,
		alive: true,
	}
	o.sched = c.qsched.NewScheduler(o.disk)
	c.rmon.Watch(o.disk)
	c.osds[id] = o
	if c.fpPool != 0 {
		c.attachFPIndex(o) // index enabled before this OSD joined
	}
	return nil
}

// NewTestbed builds the paper's evaluation cluster: hosts each with
// osdsPerHost OSDs.
func NewTestbed(eng *sim.Engine, cost simcost.Params, hosts, osdsPerHost int, opts ...Option) *Cluster {
	c := New(eng, cost, opts...)
	id := 0
	for h := 0; h < hosts; h++ {
		name := fmt.Sprintf("host%d", h)
		c.AddHost(name)
		for d := 0; d < osdsPerHost; d++ {
			if err := c.AddOSD(id, name, 1.0); err != nil {
				panic(err)
			}
			id++
		}
	}
	return c
}

// CreatePool creates a pool.
func (c *Cluster) CreatePool(cfg PoolConfig) (*Pool, error) {
	if _, ok := c.pools[cfg.Name]; ok {
		return nil, ErrPoolExists
	}
	if cfg.PGNum == 0 {
		cfg.PGNum = 64
	}
	switch cfg.Redundancy.Kind {
	case Replicated:
		if cfg.Redundancy.Size < 1 {
			return nil, fmt.Errorf("rados: pool %q invalid replica count %d", cfg.Name, cfg.Redundancy.Size)
		}
	case Erasure:
		if cfg.Redundancy.K < 1 || cfg.Redundancy.M < 0 {
			return nil, fmt.Errorf("rados: pool %q invalid EC %d+%d", cfg.Name, cfg.Redundancy.K, cfg.Redundancy.M)
		}
	default:
		return nil, fmt.Errorf("rados: pool %q missing redundancy scheme", cfg.Name)
	}
	c.nextPool++
	p := &Pool{ID: c.nextPool, Name: cfg.Name, PGNum: cfg.PGNum, Red: cfg.Redundancy,
		label: sim.Intern(cfg.Name), pgLabels: make([]sim.Label, cfg.PGNum),
		lockWait: c.reg.Histogram("rados_pg_lock_wait:" + cfg.Name), lockHold: c.reg.Histogram("rados_pg_lock_hold:" + cfg.Name),
		replApply: c.reg.Histogram("rados_replica_apply:" + cfg.Name)}
	c.pools[cfg.Name] = p
	c.poolsByID[p.ID] = p
	return p, nil
}

// LookupPool returns a pool by name.
func (c *Cluster) LookupPool(name string) (*Pool, error) {
	p, ok := c.pools[name]
	if !ok {
		return nil, ErrPoolNotFound
	}
	return p, nil
}

// PGOf computes the placement group of an object.
func (c *Cluster) PGOf(p *Pool, oid string) crush.PG {
	return crush.PGForObject(p.ID, p.PGNum, oid)
}

// Label returns the pool's name as a trace span label.
func (p *Pool) Label() sim.Label { return p.label }

// pgLabel returns the name of pg, one of p's PGs, as a span label.
func (p *Pool) pgLabel(pg crush.PG) sim.Label {
	l := p.pgLabels[pg.Seq]
	if l == 0 {
		l = sim.Intern(pg.String())
		p.pgLabels[pg.Seq] = l
	}
	return l
}

// pgResCheck invalidates the placement caches when the CRUSH epoch moved.
// A PG fully determines its pool (PG.Pool is the pool id), so caching by PG
// alone is sound: every resolution of the same PG uses the same width.
func (c *Cluster) pgResCheck() {
	if c.pgResEpoch != c.cmap.Epoch || c.actCache == nil {
		c.pgResEpoch = c.cmap.Epoch
		c.actCache = make(map[crush.PG][]*osd)
		c.wantCache = make(map[crush.PG][]*osd)
	}
}

// acting returns the up OSDs for a PG in placement order. The slice is
// cached per epoch and shared — callers must not modify it.
func (c *Cluster) acting(p *Pool, pg crush.PG) []*osd {
	c.pgResCheck()
	if out, ok := c.actCache[pg]; ok {
		return out
	}
	out := c.osdList(c.cmap.ActingSet(pg, p.Red.Width()))
	c.actCache[pg] = out
	return out
}

// osdList resolves OSD ids to their daemons, in order, skipping unknown ids.
func (c *Cluster) osdList(ids []int) []*osd {
	out := make([]*osd, 0, len(ids))
	for _, id := range ids {
		if o := c.osds[id]; o != nil {
			out = append(out, o)
		}
	}
	return out
}

// want returns the full target OSD set for a PG (including down members).
// The slice is cached per epoch and shared — callers must not modify it.
func (c *Cluster) want(p *Pool, pg crush.PG) []*osd {
	c.pgResCheck()
	if out, ok := c.wantCache[pg]; ok {
		return out
	}
	out := c.osdList(c.cmap.MapPG(pg, p.Red.Width()))
	c.wantCache[pg] = out
	return out
}

func (c *Cluster) pgLock(pg crush.PG) *sim.Resource {
	l, ok := c.pgLocks[pg]
	if !ok {
		l = sim.NewResource("pg."+pg.String(), 1)
		c.pgLocks[pg] = l
	}
	return l
}

// pgHold is one granted PG lock; release gives it back.
type pgHold struct {
	l    *sim.Resource
	pool *Pool
	at   sim.Time // when the lock was granted
}

// lockPG takes pg's lock for one op's PG work — the only place a PG lock is
// taken, so every acquisition is timed into the pool's lockWait and, at
// release, lockHold.
func (c *Cluster) lockPG(p *sim.Proc, pool *Pool, pg crush.PG) pgHold {
	l, asked := c.pgLock(pg), p.Now()
	l.Acquire(p)
	pool.lockWait.Add((p.Now() - asked).Duration())
	return pgHold{l: l, pool: pool, at: p.Now()}
}

func (h pgHold) release(p *sim.Proc) {
	h.l.Release(p)
	h.pool.lockHold.Add((p.Now() - h.at).Duration())
}

// ForegroundOps returns the counter of client-issued operations, the signal
// the dedup rate controller watches (§4.4.2).
func (c *Cluster) ForegroundOps() *OpCounter { return c.fgOps }

// Metrics returns the cluster-wide metric registry. Every layer (gateways,
// the dedup engine, GC, recovery) registers its instruments
// here.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// Trace returns the cluster's span sink. All gateway ops record spans into
// it; nil is never returned.
func (c *Cluster) Trace() *metrics.TraceSink { return c.sink }

// Resources returns the monitor holding queue-depth/utilization timelines
// for every host NIC, host CPU pool and OSD disk.
func (c *Cluster) Resources() *metrics.ResourceMonitor { return c.rmon }

// QoS returns the cluster's scheduler group: the shared per-class weights
// and depth caps every OSD disk and host NIC scheduler enforces. Policies
// (the §4.4.2 watermark controller) tune classes through it.
func (c *Cluster) QoS() *qos.Group { return c.qsched }

// DumpMetrics publishes the current resource utilization into the registry
// and renders everything as Prometheus exposition text.
func (c *Cluster) DumpMetrics() string {
	now := c.eng.Now()
	for _, u := range c.rmon.Snapshot(now) {
		base := "sim_resource_" + u.Name
		c.reg.Gauge(base + "_queue_max").Set(int64(u.MaxQueue))
		c.reg.Gauge(base + "_util_ppm").Set(int64(u.Utilization * 1e6))
	}
	ops, bytes := c.fgOps.Totals()
	c.setCounter("rados_foreground_ops_total", ops)
	c.setCounter("rados_foreground_bytes_total", bytes)
	c.setCounter("rados_recovered_bytes_total", c.recovered)
	for _, t := range c.qsched.Totals() {
		base := "qos_" + t.Class
		c.setCounter(base+"_admitted_total", t.Admitted)
		c.setCounter(base+"_queued_total", t.Queued)
		c.setCounter(base+"_throttled_total", t.Throttled)
		c.reg.Gauge(base + "_weight").Set(t.Weight)
		c.reg.Gauge(base + "_limit_us").Set(t.Limit.Microseconds())
		c.reg.Gauge(base + "_queue_len").Set(int64(t.QueueLen))
		c.reg.Gauge(base + "_queue_max").Set(int64(t.MaxQueue))
		c.reg.Gauge(base + "_inflight").Set(int64(t.Inflight))
		c.reg.Gauge(base + "_queue_wait_us").Set(t.QueueWait.Microseconds())
		c.reg.Gauge(base + "_busy_us").Set(t.Busy.Microseconds())
	}
	c.publishFPIndexMetrics()
	return c.reg.Dump()
}

// setCounter publishes a total kept outside the registry as a counter.
func (c *Cluster) setCounter(name string, v int64) {
	ctr := c.reg.Counter(name)
	ctr.Add(v - ctr.Value())
}

// RecoveredBytes reports total bytes moved by recovery/rebalance so far.
func (c *Cluster) RecoveredBytes() int64 { return c.recovered }

// HostCPUBusy returns the summed CPU busy time across all hosts up to now.
// Measure a window by differencing two calls: usage = Δbusy / (Δt × hosts).
func (c *Cluster) HostCPUBusy() time.Duration {
	now := c.eng.Now()
	var busy time.Duration
	for _, h := range c.hosts {
		busy += h.cpu.BusyTime(now)
	}
	return busy
}

// HostCount returns the number of registered hosts.
func (c *Cluster) HostCount() int { return len(c.hosts) }

// OSDStore exposes an OSD's backing store (used by tests, local-dedup
// baseline accounting, and recovery verification).
func (c *Cluster) OSDStore(id int) (*store.Store, bool) {
	o, ok := c.osds[id]
	if !ok {
		return nil, false
	}
	return o.store, true
}

// OSDs returns all OSD ids, ascending.
func (c *Cluster) OSDs() []int { return c.cmap.OSDs() }

// netSend models one network hop's charge on link nic, whose other end is
// peer: the NIC is occupied only for the serialization time; propagation
// latency accrues without holding the link. The serialization slot is
// admitted through the link's QoS scheduler under the op's class. A degraded
// link (SetNICSlow) stretches serialization by its factor. When both ends
// share one link (a host gateway and an OSD on its host, two OSDs on one
// host) the bytes never leave the host: the hop pays its latency, occupies
// no link and counts its bytes in rados_net_local_bytes_total. This is the
// one place that decides it; scripts/check-seams.sh keeps every link
// charge here.
func (c *Cluster) netSend(p *sim.Proc, cls qos.Class, nic, peer *qos.Scheduler, n int) {
	if nic == peer {
		c.netLocal.Add(int64(n))
		p.Sleep(c.cost.NetLatency)
		return
	}
	ser := c.cost.NetSer(n)
	if f, ok := c.nicSlow[nic.Resource().Name()]; ok && f > 1 {
		ser = time.Duration(float64(ser) * f)
	}
	nic.Use(p, cls, ser)
	p.Sleep(c.cost.NetLatency)
}

// ---------------------------------------------------------------------------
// Fault surface: process crash/restart and performance degradation. These are
// the primitives internal/chaos drives; they model what happens to the
// machine, while the heartbeat Monitor models how the cluster finds out.

// reqTimeout is how long a gateway op waits on a dead acting OSD before
// failing over or returning ErrOSDDown (the client-visible request timeout).
const reqTimeout = 2 * time.Millisecond

// RequestTimeout returns the gateway request timeout charged when an op hits
// a dead acting OSD.
func (c *Cluster) RequestTimeout() time.Duration { return reqTimeout }

// CrashOSD kills an OSD process. The CRUSH map is NOT updated — the cluster
// keeps routing to the dead OSD until the heartbeat monitor marks it down,
// which is the detection window the chaos experiments measure. Ops hitting
// the dead OSD time out (writes) or fall back to surviving redundancy
// (reads). Crashing a crashed OSD is a no-op.
func (c *Cluster) CrashOSD(id int) error {
	o, ok := c.osds[id]
	if !ok {
		return fmt.Errorf("rados: unknown osd %d", id)
	}
	o.crash()
	c.reg.Counter("rados_osd_crashes_total").Inc()
	return nil
}

// RestartOSD brings a crashed OSD process back with its store intact. Copies
// of objects written or deleted while it was dead are stale by version, so it
// never serves or sources them; recovery overwrites or deletes them. The
// monitor notices the restart on its next tick and marks the OSD up/in again.
func (c *Cluster) RestartOSD(id int) error {
	o, ok := c.osds[id]
	if !ok {
		return fmt.Errorf("rados: unknown osd %d", id)
	}
	if o.alive {
		return nil
	}
	o.restart()
	c.reg.Counter("rados_osd_restarts_total").Inc()
	return nil
}

// OSDAlive reports whether the OSD process is running (independent of its
// CRUSH up/in state).
func (c *Cluster) OSDAlive(id int) bool {
	o, ok := c.osds[id]
	return ok && o.alive
}

// SetOSDSlow scales an OSD's disk service times by factor (1.0, or any
// factor below it, restores the cost model's speed). Models a
// failing/throttled device.
func (c *Cluster) SetOSDSlow(id int, factor float64) error {
	o, ok := c.osds[id]
	if !ok {
		return fmt.Errorf("rados: unknown osd %d", id)
	}
	o.slow = max(factor, 1)
	return nil
}

// SetNICSlow scales a host's NIC serialization times by factor (1.0
// restores full speed). Models link degradation or congestion.
func (c *Cluster) SetNICSlow(hostName string, factor float64) error {
	h, ok := c.hosts[hostName]
	if !ok {
		return fmt.Errorf("rados: unknown host %q", hostName)
	}
	if factor <= 1 {
		delete(c.nicSlow, h.nic.Name())
	} else {
		c.nicSlow[h.nic.Name()] = factor
	}
	return nil
}

// HostOSDs returns the ids of the OSDs on a host, ascending — the unit a
// host-level fault takes down.
func (c *Cluster) HostOSDs(hostName string) []int {
	var ids []int
	for _, id := range c.cmap.OSDs() {
		if o := c.osds[id]; o != nil && o.host.name == hostName {
			ids = append(ids, id)
		}
	}
	return ids
}

// upAlive reports whether o can take part in I/O: marked up in the CRUSH map
// and its process running.
func (c *Cluster) upAlive(o *osd) bool {
	info, ok := c.cmap.Lookup(o.id)
	return ok && info.Up && o.alive
}

// current reports whether o's copy of key may be trusted: its version equals
// the key's head, a missing copy and a missing head both counting as 0. It is
// the one rule by which rados picks who serves a read, sources a copy, counts
// as a holder or takes a delta (DESIGN.md §6.1); any other copy is stale and
// inert until Recover overwrites or deletes it. For a key without a head every
// OSD lacking a copy is current: it answers not-found, right for a read but
// nothing to copy or decode, so a caller about to read the copy itself must
// know it exists — from a nonzero head (current then implies a copy) or from
// store.Exists.
func (c *Cluster) current(o *osd, key store.Key) bool {
	return o.store.Version(key) == c.head[key]
}

// nextVersion mints the version of one mutation, which every copy it is
// applied to is stamped with: the only place rados makes one
// (scripts/check-seams.sh).
func (c *Cluster) nextVersion() uint64 {
	c.lastVersion++
	return c.lastVersion
}

// setHead makes v key's head; 0 drops the entry (the object is deleted).
func (c *Cluster) setHead(key store.Key, v uint64) {
	if v == 0 {
		delete(c.head, key)
	} else {
		c.head[key] = v
	}
}

// commitShards ends an EC mutation of key: the shards it wrote (the non-nil
// entries) are stamped with a new version, which becomes the head. No shard
// serves a read alone, so until then all keep their old version and a read
// racing the fan-out trusts the shards it did before the mutation began.
func (c *Cluster) commitShards(key store.Key, shards []*osd) {
	v := c.nextVersion()
	stamp := store.NewTxn().Stamp(v)
	for _, o := range shards {
		if o != nil {
			_ = o.apply(nil, key, stamp) // a txn without ops cannot fail
		}
	}
	c.setHead(key, v)
}

// unavailable is the error for an object no live OSD can serve: retryable
// ErrOSDDown while a dead or out OSD holds a current copy, else ErrNotFound.
func (c *Cluster) unavailable(key store.Key) error {
	if c.head[key] != 0 && slices.ContainsFunc(c.allOSDs(), func(o *osd) bool { return c.current(o, key) }) {
		return ErrOSDDown
	}
	return ErrNotFound
}

// servingCopy picks the OSD whose copy of key answers a read on a replicated
// object: the first live acting member with a current copy, else any live
// in-map holder (nil if there is none).
func (c *Cluster) servingCopy(acting []*osd, key store.Key) *osd {
	if i := slices.IndexFunc(acting, func(o *osd) bool { return o.alive && c.current(o, key) }); i >= 0 {
		return acting[i]
	}
	return c.liveInMapHolder(key)
}

// liveInMapHolder returns the first live, up+in OSD (in id order) with a
// current copy of key — the shared "who can still serve this object" scan
// behind degraded reads, on-demand pulls and xattr peeks. For a key without a
// head that is any such OSD, which serves the not-found answer.
func (c *Cluster) liveInMapHolder(key store.Key) *osd {
	if i := slices.IndexFunc(c.allOSDs(), func(o *osd) bool { return c.current(o, key) && c.inService(o) }); i >= 0 {
		return c.allOSDs()[i]
	}
	return nil
}

// inService reports whether o is alive and marked up and in: a member that
// serves and receives its share of the map.
func (c *Cluster) inService(o *osd) bool {
	info, ok := c.cmap.Lookup(o.id)
	return ok && info.Up && info.In && o.alive
}

// allOSDs returns every OSD in id order. The slice is cached per CRUSH
// epoch and shared — callers must not modify it.
func (c *Cluster) allOSDs() []*osd {
	if c.osdSeqEpoch != c.cmap.Epoch || c.osdSeq == nil {
		c.osdSeq = c.osdList(c.cmap.OSDs())
		c.osdSeqEpoch = c.cmap.Epoch
	}
	return c.osdSeq
}
