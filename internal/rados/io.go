package rados

import (
	"bytes"
	"fmt"
	"time"

	"dedupstore/internal/crush"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Gateway is a client session endpoint: it owns the client-side NIC and
// issues object operations into the cluster under one QoS class. Foreground
// gateways feed the cluster's foreground-op counter (watched by dedup rate
// control); internal gateways (background dedup, recovery helpers) do not.
type Gateway struct {
	c          *Cluster
	name       string
	nic        *qos.Scheduler
	cls        qos.Class
	foreground bool
	tenant     string // tenant identity stamped on this gateway's spans
}

// NewGateway creates a client gateway with its own 10GbE link. Its
// operations count as foreground I/O and run in the client QoS class.
func (c *Cluster) NewGateway(name string) *Gateway {
	nic := sim.NewResource("nic."+name, 1)
	c.rmon.Watch(nic)
	return &Gateway{c: c, name: name, nic: c.qsched.NewScheduler(nic), cls: qos.Client, foreground: true}
}

// HostGateway creates an internal gateway that shares an existing host's
// NIC — the vantage point of a background dedup thread running on a storage
// node. Its operations are not counted as foreground I/O and run in the
// dedup QoS class.
func (c *Cluster) HostGateway(hostName string) (*Gateway, error) {
	return c.HostGatewayClass(hostName, qos.Dedup)
}

// HostGatewayClass is HostGateway for an explicit QoS class — how GC,
// scrub and read-redirection sessions pin their traffic to the right
// scheduler class.
func (c *Cluster) HostGatewayClass(hostName string, cls qos.Class) (*Gateway, error) {
	h, ok := c.hosts[hostName]
	if !ok {
		return nil, fmt.Errorf("rados: unknown host %q", hostName)
	}
	// Internal gateways never feed the foreground-op counter, even in the
	// client class: a client-class host gateway proxies work some client
	// gateway already counted (read redirection).
	return &Gateway{
		c:          c,
		name:       "internal." + cls.String() + "." + hostName,
		nic:        h.nicSched,
		cls:        cls,
		foreground: false,
	}, nil
}

// Class returns the QoS class this gateway's operations are admitted under.
func (g *Gateway) Class() qos.Class { return g.cls }

// SetTenant attributes this gateway's operations to a tenant: every span it
// opens from here on carries the identity, so cluster-level traffic is
// traceable back to the serving front end's tenant that issued it.
func (g *Gateway) SetTenant(tenant string) { g.tenant = tenant }

// Tenant returns the tenant identity this gateway is attributed to.
func (g *Gateway) Tenant() string { return g.tenant }

func (g *Gateway) noteOp(bytes int) {
	if g.foreground {
		g.c.fgOps.Note(bytes)
	}
}

// opStats caches one op kind's registry handles, resolved once at cluster
// construction so the per-op completion path performs no string-keyed map
// lookups.
type opStats struct {
	total *metrics.Counter
	lat   *metrics.Histogram
	errs  *metrics.Counter
}

func newOpStats(reg *metrics.Registry, kind string) opStats {
	return opStats{
		total: reg.Counter("rados_op_total:" + kind),
		lat:   reg.Histogram("rados_op_latency:" + kind),
		errs:  reg.Counter("rados_op_errors_total:" + kind),
	}
}

// opCtx carries one in-flight gateway op: its trace span (nil when trace
// sampling dropped it), the kind's pre-resolved stat handles, and the start
// time. Latency is measured from the op's own clock, so the registry stays
// exact even for ops whose span was not sampled.
type opCtx struct {
	sp    *metrics.Span
	st    *opStats
	start sim.Time
}

// startOp opens a trace span for a gateway operation, tagged with pool, PG
// and payload size. Tracing observes only — it adds no virtual time.
func (g *Gateway) startOp(p *sim.Proc, kind string, st *opStats, pool *Pool, oid string, bytes int) opCtx {
	sp := g.c.sink.Start(p, kind)
	if sp != nil {
		sp.SetOp(pool.Name, g.c.PGOf(pool, oid).String(), int64(bytes)).SetClass(g.cls.String()).SetTenant(g.tenant)
	}
	return opCtx{sp: sp, st: st, start: p.Now()}
}

// finishOp closes the span (which recycles it — the span must not be used
// afterwards) and records the op's latency and outcome in the cluster
// registry.
func (g *Gateway) finishOp(p *sim.Proc, oc opCtx, err error) {
	if oc.sp != nil {
		oc.sp.Err = err != nil
		oc.sp.Finish(p)
	}
	oc.st.total.Inc()
	oc.st.lat.Add((p.Now() - oc.start).Duration())
	if err != nil {
		oc.st.errs.Inc()
	}
}

// View gives a Mutate closure read access to the object being mutated. For
// replicated pools reads are local to the primary; for EC pools data reads
// gather shards (and are charged accordingly).
type View interface {
	// Exists reports whether the object currently exists.
	Exists() bool
	// Size returns the object data length (0 if absent).
	Size() int64
	// Read returns length bytes at off (nil past end; length<0 reads all).
	Read(off, length int64) ([]byte, error)
	// GetXattr returns an xattr value or ErrNotFound.
	GetXattr(name string) ([]byte, error)
	// OmapGet returns an omap value or ErrNotFound.
	OmapGet(key string) ([]byte, error)
	// OmapList returns up to max omap keys (all if max<=0), sorted.
	OmapList(max int) ([]string, error)
}

// MutateFn inspects the current object state and returns the transaction to
// apply, or a nil/empty transaction for no change. Returning an error aborts
// the mutation (nothing is applied).
type MutateFn func(v View) (*store.Txn, error)

type replView struct {
	st *store.Store
	k  store.Key
}

func (v replView) Exists() bool { return v.st.Exists(v.k) }
func (v replView) Size() int64 {
	n, err := v.st.Size(v.k)
	if err != nil {
		return 0
	}
	return n
}
func (v replView) Read(off, length int64) ([]byte, error) { return v.st.Read(v.k, off, length) }
func (v replView) GetXattr(name string) ([]byte, error)   { return v.st.GetXattr(v.k, name) }
func (v replView) OmapGet(key string) ([]byte, error)     { return v.st.OmapGet(v.k, key) }
func (v replView) OmapList(max int) ([]string, error)     { return v.st.OmapList(v.k, max) }

// --- Public operations -------------------------------------------------------

// Write writes data at offset off (replicated pools write in place; EC
// pools perform a read-modify-write of the full object).
func (g *Gateway) Write(p *sim.Proc, pool *Pool, oid string, off int64, data []byte) error {
	oc := g.startOp(p, "rados.write", &g.c.ops.write, pool, oid, len(data))
	var err error
	if pool.Red.Kind == Erasure {
		err = g.ecWrite(p, pool, oid, off, data)
	} else {
		txn := store.NewTxn().Write(off, data)
		err = g.applyTxn(p, pool, oid, txn, len(data))
		g.noteOp(len(data))
	}
	g.finishOp(p, oc, err)
	return err
}

// WriteFull replaces the object's contents. data stays the caller's: the
// replicas share the one copy made here (an EC pool encodes fresh shards).
func (g *Gateway) WriteFull(p *sim.Proc, pool *Pool, oid string, data []byte) error {
	oc := g.startOp(p, "rados.writefull", &g.c.ops.writeFull, pool, oid, len(data))
	var err error
	if pool.Red.Kind == Erasure {
		err = g.ecWriteFull(p, pool, oid, data)
	} else {
		txn := store.NewTxn().WriteFull(bytes.Clone(data))
		err = g.applyTxn(p, pool, oid, txn, len(data))
		g.noteOp(len(data))
	}
	g.finishOp(p, oc, err)
	return err
}

// Delete removes the object.
func (g *Gateway) Delete(p *sim.Proc, pool *Pool, oid string) error {
	oc := g.startOp(p, "rados.delete", &g.c.ops.del, pool, oid, 0)
	var err error
	if pool.Red.Kind == Erasure {
		err = g.ecDelete(p, pool, oid)
	} else {
		err = g.applyTxn(p, pool, oid, store.NewTxn().Delete(), 0)
		g.noteOp(0)
	}
	g.finishOp(p, oc, err)
	return err
}

// Read returns length bytes at off (length<0 reads to end) in a fresh buffer
// the caller owns. Reads are served by the acting primary.
func (g *Gateway) Read(p *sim.Proc, pool *Pool, oid string, off, length int64) ([]byte, error) {
	return g.tracedRead(p, pool, oid, off, length, nil, false)
}

// ReadInto is Read for a caller that already owns the buffer the bytes end
// up in: it reads up to len(dst) bytes at off into dst and returns how many
// it read (fewer than len(dst) when the object ends first). The bytes land in
// dst at the simulated instant Read would have copied them out of the store;
// the op is charged, counted and traced exactly as the equal-length Read.
func (g *Gateway) ReadInto(p *sim.Proc, pool *Pool, oid string, off int64, dst []byte) (int, error) {
	data, err := g.tracedRead(p, pool, oid, off, int64(len(dst)), dst, false)
	return len(data), err
}

// ReadBorrowed is Read for a caller that only looks at the bytes (scrub
// hashes them). The result is read-only: on a replicated pool it is the
// serving OSD's stored bytes as of the instant Read would have copied them.
func (g *Gateway) ReadBorrowed(p *sim.Proc, pool *Pool, oid string, off, length int64) ([]byte, error) {
	return g.tracedRead(p, pool, oid, off, length, nil, true)
}

func (g *Gateway) tracedRead(p *sim.Proc, pool *Pool, oid string, off, length int64, dst []byte, borrow bool) ([]byte, error) {
	oc := g.startOp(p, "rados.read", &g.c.ops.read, pool, oid, 0)
	data, err := g.read(p, pool, oid, off, length, dst, borrow)
	if oc.sp != nil {
		oc.sp.Bytes = int64(len(data))
	}
	g.finishOp(p, oc, err)
	return data, err
}

// read serves Read (dst nil: the result is allocated here, once its length
// is known), ReadInto (the result is the filled prefix of dst, and length
// is len(dst)) and ReadBorrowed (dst nil, borrow set).
func (g *Gateway) read(p *sim.Proc, pool *Pool, oid string, off, length int64, dst []byte, borrow bool) ([]byte, error) {
	if pool.Red.Kind == Erasure {
		return g.ecRead(p, pool, oid, off, length, dst)
	}
	serving, err := g.servingOSD(p, pool, oid)
	if err != nil {
		g.noteOp(0)
		return nil, err
	}
	key := store.Key{Pool: pool.ID, OID: oid}
	p.Sleep(g.c.cost.NetLatency) // request
	serving.host.cpu.Use(p, g.c.cost.OpOverhead)
	// Locating a chunk object on the indexed pool walks the fingerprint
	// index before the data read.
	g.fpProbe(p, pool, oid, serving)
	var data []byte
	switch {
	case borrow:
		data, err = serving.store.Borrow(key, off, length)
	case dst == nil:
		data, err = serving.store.Read(key, off, length)
	default:
		var n int
		n, err = serving.store.ReadInto(key, off, dst)
		data = dst[:n]
	}
	if err != nil {
		g.noteOp(0)
		return nil, err
	}
	serving.diskRead(p, g.cls, g.c.cost, len(data))
	g.c.netSend(p, g.cls, serving.host.nicSched, len(data))
	g.c.netSend(p, g.cls, g.nic, len(data))
	g.noteOp(len(data))
	return data, nil
}

// timeoutWait charges the request timeout an op pays before concluding its
// target OSD is dead.
func (g *Gateway) timeoutWait(p *sim.Proc) {
	p.Sleep(reqTimeout)
	g.c.reg.Counter("rados_requests_timed_out_total").Inc()
}

// servingOSD selects the OSD that serves a read-type op on a replicated
// object. The acting primary serves when it is alive and holds the object;
// if the primary's process is dead (crashed but not yet marked down) the op
// pays the request timeout and fails over to a surviving replica — the
// degraded-read path. During the post-remap window an object may not have
// reached the new acting set yet, in which case any live in-map holder of
// the current copy serves. Only if the sole copies sit on dead OSDs does
// the op fail, with the retryable ErrOSDDown.
func (g *Gateway) servingOSD(p *sim.Proc, pool *Pool, oid string) (*osd, error) {
	acting := g.c.acting(pool, g.c.PGOf(pool, oid))
	if len(acting) == 0 {
		return nil, ErrNoOSD
	}
	key := store.Key{Pool: pool.ID, OID: oid}
	if acting[0].alive && acting[0].store.Exists(key) {
		return acting[0], nil
	}
	if !acting[0].alive {
		g.timeoutWait(p) // request to the dead primary times out first
	}
	for _, o := range acting[1:] {
		if o.alive && o.store.Exists(key) {
			g.c.reg.Counter("rados_degraded_reads_total").Inc()
			return o, nil
		}
	}
	// Post-remap window: recovery has not yet copied the object into the new
	// acting set, but a live in-map OSD still holds the current copy.
	if o := g.c.liveInMapHolder(key, nil); o != nil {
		g.c.reg.Counter("rados_degraded_reads_total").Inc()
		return o, nil
	}
	// No live copy. If a dead OSD holds one that is not known-stale, the
	// object will come back when that OSD restarts or recovery rebuilds it:
	// retryable, not not-found.
	if g.c.recoverableOnDead(key, g.c.allOSDs()) {
		return nil, ErrOSDDown
	}
	if acting[0].alive {
		return acting[0], nil // absent object: primary reports not-found
	}
	for _, o := range acting[1:] {
		if o.alive {
			return o, nil
		}
	}
	return nil, ErrOSDDown
}

// Stat returns the object size.
func (g *Gateway) Stat(p *sim.Proc, pool *Pool, oid string) (int64, error) {
	v, err := g.metaView(p, pool, oid)
	if err != nil {
		return 0, err
	}
	if !v.Exists() {
		return 0, ErrNotFound
	}
	return v.Size(), nil
}

// Exists reports object existence.
func (g *Gateway) Exists(p *sim.Proc, pool *Pool, oid string) (bool, error) {
	v, err := g.metaView(p, pool, oid)
	if err != nil {
		return false, err
	}
	return v.Exists(), nil
}

// GetXattr reads an extended attribute.
func (g *Gateway) GetXattr(p *sim.Proc, pool *Pool, oid, name string) ([]byte, error) {
	v, err := g.metaView(p, pool, oid)
	if err != nil {
		return nil, err
	}
	return v.GetXattr(name)
}

// SetXattr writes an extended attribute (replicated like any mutation).
// value stays the caller's; the replicas share the one copy made here.
func (g *Gateway) SetXattr(p *sim.Proc, pool *Pool, oid, name string, value []byte) error {
	value = bytes.Clone(value)
	return g.Mutate(p, pool, oid, func(View) (*store.Txn, error) {
		return store.NewTxn().SetXattr(name, value), nil
	})
}

// OmapGet reads one omap value.
func (g *Gateway) OmapGet(p *sim.Proc, pool *Pool, oid, key string) ([]byte, error) {
	v, err := g.metaView(p, pool, oid)
	if err != nil {
		return nil, err
	}
	return v.OmapGet(key)
}

// OmapList lists up to max omap keys (all if max<=0).
func (g *Gateway) OmapList(p *sim.Proc, pool *Pool, oid string, max int) ([]string, error) {
	v, err := g.metaView(p, pool, oid)
	if err != nil {
		return nil, err
	}
	return v.OmapList(max)
}

// OmapSet writes omap entries. The values stay the caller's; the replicas
// share the one copy made here.
func (g *Gateway) OmapSet(p *sim.Proc, pool *Pool, oid string, kv map[string][]byte) error {
	return g.Mutate(p, pool, oid, func(View) (*store.Txn, error) {
		txn := store.NewTxn().Create()
		for k, v := range kv {
			txn.OmapSet(k, bytes.Clone(v))
		}
		return txn, nil
	})
}

// Mutate runs a read-modify-write on one object under the PG lock: the
// closure sees the current state and returns the transaction to apply. This
// is the analog of a Ceph object-class operation and is what the dedup layer
// uses for atomic reference counting on chunk objects (§4.4.1 steps 3–5).
// The request itself is treated as small; use MutateWithPayload when the
// caller ships bulk data with the operation.
func (g *Gateway) Mutate(p *sim.Proc, pool *Pool, oid string, fn MutateFn) error {
	return g.MutateWithPayload(p, pool, oid, 0, fn)
}

// MutateWithPayload is Mutate for operations that carry payload bytes from
// the caller (e.g. a write plus metadata update, or a chunk create-or-ref):
// the payload is charged on the caller's outbound link and the primary's
// inbound link. Replicas always receive the full resulting transaction.
func (g *Gateway) MutateWithPayload(p *sim.Proc, pool *Pool, oid string, payload int, fn MutateFn) error {
	oc := g.startOp(p, "rados.mutate", &g.c.ops.mutate, pool, oid, payload)
	err := g.mutateWithPayload(p, pool, oid, payload, fn)
	g.finishOp(p, oc, err)
	return err
}

func (g *Gateway) mutateWithPayload(p *sim.Proc, pool *Pool, oid string, payload int, fn MutateFn) error {
	if pool.Red.Kind == Erasure {
		return g.ecMutate(p, pool, oid, payload, fn)
	}
	primary, unlock, err := g.prepare(p, pool, oid)
	if err != nil {
		return err
	}
	defer unlock()
	view := replView{st: primary.store, k: store.Key{Pool: pool.ID, OID: oid}}
	txn, err := g.mutateTxn(p, pool, oid, primary, payload, view, fn)
	if txn == nil {
		return err
	}
	if err := g.replicate(p, pool, oid, txn, txn.Bytes()); err != nil {
		return err
	}
	g.noteOp(max(payload, txn.Bytes()))
	return nil
}

// --- Internal plumbing -------------------------------------------------------

// mutateTxn is the request half of a Mutate on either pool kind: the request
// (with any bulk payload) crosses the wire to the primary, which runs fn
// against v. It returns the transaction to apply, or nil when fn aborted or
// left nothing to change — the op is then already accounted and acked.
func (g *Gateway) mutateTxn(p *sim.Proc, pool *Pool, oid string, primary *osd, payload int, v View, fn MutateFn) (*store.Txn, error) {
	if payload > 0 {
		g.c.netSend(p, g.cls, g.nic, payload)
		g.c.netSend(p, g.cls, primary.host.nicSched, payload)
	} else {
		p.Sleep(g.c.cost.NetLatency)
	}
	primary.host.cpu.Use(p, g.c.cost.OpOverhead)
	// A mutation on the indexed pool (chunk create-or-ref, refcount update)
	// first resolves the fingerprint through the index.
	g.fpProbe(p, pool, oid, primary)
	txn, err := fn(v)
	if err != nil || txn == nil || txn.Empty() {
		if err == nil {
			p.Sleep(g.c.cost.NetLatency) // ack
		}
		g.noteOp(0)
		return nil, err
	}
	return txn, nil
}

// prepare resolves placement and acquires the PG lock for a mutation. It
// verifies the acting primary is alive — a mutation against a dead primary
// pays the request timeout and fails with the retryable ErrOSDDown — and
// pulls the object to a freshly-remapped primary that does not hold it yet.
func (g *Gateway) prepare(p *sim.Proc, pool *Pool, oid string) (primary *osd, unlock func(), err error) {
	pg := g.c.PGOf(pool, oid)
	acting := g.c.acting(pool, pg)
	if len(acting) == 0 {
		return nil, nil, ErrNoOSD
	}
	l := g.c.pgLock(pg)
	l.Acquire(p)
	if !acting[0].alive {
		g.timeoutWait(p)
		l.Release(p)
		return nil, nil, ErrOSDDown
	}
	g.pullOnDemand(p, pool, oid, acting[0])
	return acting[0], func() { l.Release(p) }, nil
}

// pullOnDemand restores an object at a freshly-remapped primary before a
// mutation runs against it: if the primary lacks the object but another
// live in-map OSD still holds the current copy (the PG moved and Recover
// has not caught up yet), the primary pulls it first — Ceph's
// recover-on-demand for ops hitting a degraded object. Without this, a
// partial write or chunk-map update at the new primary would silently
// recreate the object from nothing. Caller holds the PG lock.
func (g *Gateway) pullOnDemand(p *sim.Proc, pool *Pool, oid string, primary *osd) {
	key := store.Key{Pool: pool.ID, OID: oid}
	if primary.store.Exists(key) {
		return
	}
	src := g.c.liveInMapHolder(key, primary)
	if src == nil {
		return
	}
	if _, ok := g.c.copyObject(p, g.cls, key, src, primary); ok {
		g.c.reg.Counter("rados_ondemand_pulls_total").Inc()
	}
}

// applyTxn transfers the payload to the primary and replicates the txn.
func (g *Gateway) applyTxn(p *sim.Proc, pool *Pool, oid string, txn *store.Txn, payload int) error {
	primary, unlock, err := g.prepare(p, pool, oid)
	if err != nil {
		return err
	}
	defer unlock()
	// Client -> primary transfer: the payload serializes out of the client
	// link and into the primary host's link.
	g.c.netSend(p, g.cls, g.nic, payload)
	g.c.netSend(p, g.cls, primary.host.nicSched, payload)
	return g.replicate(p, pool, oid, txn, payload)
}

// fanout describes one replica/shard fan-out: the shared shape behind every
// replicated and EC mutation in the I/O path. Targets failing the ok
// predicate are skipped (optionally counted as one degraded write);
// preApplied lists OSDs that already hold the mutation (the primary).
type fanout struct {
	name       string // child proc name
	span       string // per-child trace span ("" = untraced children)
	pool       *Pool
	pg         crush.PG
	key        store.Key
	bytes      int // payload bytes recorded on child spans
	targets    []*osd
	preApplied []*osd
	ok         func(i int, o *osd) bool
	degraded   bool // count skipped targets as a degraded write
	extra      []*sim.Signal
	do         func(q *sim.Proc, i int, o *osd)
}

// runFanout executes a fan-out: one concurrent child per eligible target
// plus any extra signals, a single wait for all acks, degraded-write
// accounting, missed-write reconciliation for the key, and the final ack
// latency back to the client. Every fanned-out mutation goes through here,
// so the QoS-classed submit path of replica/shard work changes in one place.
func (g *Gateway) runFanout(p *sim.Proc, f fanout) {
	// On a clean cluster (no crash/replace ever, CRUSH epoch unmoved) the
	// reconciliation scan provably has no work, so the applied-set map is
	// not even built. The decision is made here, before any child runs:
	// spawning is instantaneous in virtual time, so every target passing ok
	// below applies the mutation even if it crashes mid-fan-out, and a
	// cluster that is clean at this instant holds no stray copy of f.key.
	reconcile := g.c.reconcileNeeded()
	var applied map[int]bool
	if reconcile {
		applied = make(map[int]bool, len(f.targets)+len(f.preApplied))
		for _, o := range f.preApplied {
			applied[o.id] = true
		}
	}
	skipped := false
	sigs := make([]*sim.Signal, 0, len(f.targets)+len(f.extra))
	sigs = append(sigs, f.extra...)
	for i, o := range f.targets {
		if f.ok != nil && !f.ok(i, o) {
			skipped = true
			continue
		}
		if reconcile {
			applied[o.id] = true
		}
		i, o := i, o
		sigs = append(sigs, p.Go(f.name, func(q *sim.Proc) {
			if f.span != "" {
				if sp := g.c.sink.Start(q, f.span); sp != nil {
					sp.SetOp(f.pool.Name, f.pg.String(), int64(f.bytes)).
						SetClass(g.cls.String())
					defer sp.Finish(q)
				}
			}
			f.do(q, i, o)
		}))
	}
	sim.WaitAll(p, sigs...)
	if skipped && f.degraded {
		g.c.reg.Counter("rados_degraded_writes_total").Inc()
	}
	if reconcile {
		g.c.reconcileMissed(f.key, applied)
	}
	p.Sleep(g.c.cost.NetLatency) // ack to client
}

// replicate applies txn at the primary and fans out to replicas, returning
// after all replicas ack (primary-copy replication). Caller holds the PG
// lock. Crashed acting members are skipped (a degraded write) and their
// missed update recorded so they re-sync before serving again; a replica
// that rejoined after missing earlier updates is healed with a full copy of
// the primary's post-txn state instead of applying a transaction its stale
// object cannot absorb.
func (g *Gateway) replicate(p *sim.Proc, pool *Pool, oid string, txn *store.Txn, payload int) error {
	pg := g.c.PGOf(pool, oid)
	acting := g.c.acting(pool, pg)
	if len(acting) == 0 {
		return ErrNoOSD
	}
	primary := acting[0]
	if !primary.alive {
		g.timeoutWait(p)
		return ErrOSDDown
	}
	key := store.Key{Pool: pool.ID, OID: oid}
	cost := g.c.cost

	existedBefore := primary.store.Exists(key)
	primary.host.cpu.Use(p, cost.OpOverhead+cost.Checksum(payload))
	if err := primary.apply(p, key, txn); err != nil {
		return err
	}
	journal := p.Go("journal", func(q *sim.Proc) {
		jsp := g.c.sink.Start(q, "rados.journal")
		if jsp != nil {
			jsp.SetOp(pool.Name, pg.String(), int64(txn.Bytes())).SetClass(g.cls.String())
		}
		primary.diskWrite(q, g.cls, cost, txn.Bytes())
		jsp.Finish(q)
	})
	g.runFanout(p, fanout{
		name: "replica", span: "rados.replica",
		pool: pool, pg: pg, key: key, bytes: payload,
		targets:    acting[1:],
		preApplied: []*osd{primary},
		ok:         func(_ int, o *osd) bool { return o.alive },
		degraded:   true,
		extra:      []*sim.Signal{journal},
		do: func(q *sim.Proc, _ int, r *osd) {
			g.c.netSend(q, g.cls, r.host.nicSched, payload)
			r.host.cpu.Use(q, cost.OpOverhead)
			if existedBefore && !r.store.Exists(key) {
				// The replica missed earlier updates (its stale copy was
				// wiped on restart): heal with a full copy of the primary's
				// post-txn state. If the txn deleted the object the snapshot
				// fails and the plain apply below is a safe no-op delete.
				if snap, err := primary.store.Snapshot(key); err == nil {
					n := snap.PayloadBytes()
					g.c.netSend(q, g.cls, r.host.nicSched, n)
					r.install(q, key, snap)
					r.diskWrite(q, g.cls, cost, n)
					g.c.reg.Counter("rados_replica_heals_total").Inc()
					return
				}
			}
			if err := r.apply(q, key, txn); err != nil {
				// The replica's copy diverged from the primary: quarantine it
				// instead of killing the process. The copy is dropped so no
				// degraded read can serve it, the miss is recorded so the
				// replica re-syncs before serving after a restart, and a
				// repair scrub restores the redundancy from the primary.
				g.c.reg.Counter("rados_replica_diverged_total").Inc()
				r.remove(q, key)
				g.c.noteMissed(r.id, key)
				r.diskWrite(q, g.cls, cost, 0)
				return
			}
			r.diskWrite(q, g.cls, cost, txn.Bytes())
		},
	})
	return nil
}

// PeekXattr reads an xattr from the acting primary without charging a
// separate round trip. It models a server-side sub-step of an enclosing
// operation (e.g. the dedup read path's chunk-map lookup, §4.5 read step 3,
// which the primary performs while handling the read) — the enclosing op's
// OpOverhead covers it. When the primary is dead the xattr is served from a
// surviving holder; untimed, because the enclosing op already paid the
// failover timeout when it selected its serving OSD.
func (g *Gateway) PeekXattr(pool *Pool, oid, name string) ([]byte, error) {
	acting := g.c.acting(pool, g.c.PGOf(pool, oid))
	if len(acting) == 0 {
		return nil, ErrNoOSD
	}
	key := store.Key{Pool: pool.ID, OID: oid}
	for _, o := range acting {
		if o.alive && o.store.Exists(key) {
			return o.store.GetXattr(key, name)
		}
	}
	if o := g.c.liveInMapHolder(key, nil); o != nil {
		return o.store.GetXattr(key, name)
	}
	for _, o := range acting {
		if o.alive {
			return o.store.GetXattr(key, name) // absent object: not-found
		}
	}
	return nil, ErrOSDDown
}

// ClientXfer charges the client-side link for n bytes delivered to this
// gateway — used by layered services (e.g. dedup read redirection) whose
// final hop is proxied through a storage node back to the client.
func (g *Gateway) ClientXfer(p *sim.Proc, n int) {
	g.c.netSend(p, g.cls, g.nic, n)
}

// PrimaryHost returns the host of the acting primary for an object — where
// server-side dedup logic (redirection, background flush) runs.
func (c *Cluster) PrimaryHost(pool *Pool, oid string) (string, error) {
	acting := c.acting(pool, c.PGOf(pool, oid))
	if len(acting) == 0 {
		return "", ErrNoOSD
	}
	return acting[0].host.name, nil
}

// UseHostCPU charges d of CPU work on a host's cores (e.g. fingerprinting
// during background deduplication).
func (c *Cluster) UseHostCPU(p *sim.Proc, hostName string, d time.Duration) error {
	h, ok := c.hosts[hostName]
	if !ok {
		return fmt.Errorf("rados: unknown host %q", hostName)
	}
	h.cpu.Use(p, d)
	return nil
}

// metaView charges the fixed cost of a small metadata read at the OSD serving
// the object (the primary, or a surviving replica when it is dead) and
// returns the view the read is answered from.
func (g *Gateway) metaView(p *sim.Proc, pool *Pool, oid string) (View, error) {
	serving, err := g.servingOSD(p, pool, oid)
	if err != nil {
		return nil, err
	}
	p.Sleep(g.c.cost.NetLatency)
	serving.host.cpu.Use(p, g.c.cost.OpOverhead)
	serving.diskRead(p, g.cls, g.c.cost, 512)
	// On the fingerprint-indexed pool the existence answer comes from the
	// OSD's log-structured index, whose probe cost is charged here.
	g.fpProbe(p, pool, oid, serving)
	p.Sleep(g.c.cost.NetLatency)
	if pool.Red.Kind == Erasure {
		return ecView{g: g, p: p, pool: pool, oid: oid}, nil
	}
	return replView{st: serving.store, k: store.Key{Pool: pool.ID, OID: oid}}, nil
}
