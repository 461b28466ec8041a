package rados

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"dedupstore/internal/crush"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// The names of the spans rados opens besides its gateway ops, resolved once.
var (
	spanJournal  = sim.Intern("rados.journal")
	spanReplica  = sim.Intern("rados.replica")
	spanFPLookup = sim.Intern("fpindex.lookup")
	spanRecover  = map[string]sim.Label{
		"copy":    sim.Intern("recover.copy"),
		"rebuild": sim.Intern("recover.rebuild"),
		"delete":  sim.Intern("recover.delete"),
	}
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
	tenant     sim.Label // tenant identity stamped on this gateway's spans
}

// NewGateway creates a client gateway with its own 10GbE link. Its
// operations count as foreground I/O and run in the client QoS class.
func (c *Cluster) NewGateway(name string) *Gateway {
	nic := sim.NewResource("nic."+name, 1)
	c.rmon.Watch(nic)
	return &Gateway{c: c, name: name, nic: c.qsched.NewScheduler(nic), cls: qos.Client, foreground: true}
}

// HostGatewayClass creates an internal gateway that shares an existing
// host's NIC — the vantage point of a background thread running on a storage
// node. Its operations are not counted as foreground I/O and run in class
// cls, which is how dedup, GC, scrub and read-redirection sessions pin their
// traffic to the right scheduler class.
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
func (g *Gateway) SetTenant(tenant string) { g.tenant = sim.Intern(tenant) }

// Tenant returns the tenant identity this gateway is attributed to.
func (g *Gateway) Tenant() string { return g.tenant.String() }

func (g *Gateway) noteOp(bytes int) {
	if g.foreground {
		g.c.fgOps.Note(bytes)
	}
}

// startOp opens a gateway op's span, tagged with pool, PG, payload size,
// QoS class and tenant.
func (g *Gateway) startOp(p *sim.Proc, st *metrics.OpStats, pool *Pool, oid string, bytes int) metrics.Op {
	op := st.Start(p, g.c.sink)
	if op.Span != nil {
		op.Span.SetOp(pool.label, pool.pgLabel(g.c.PGOf(pool, oid)), int64(bytes)).SetClass(g.cls.Label()).SetTenant(g.tenant)
	}
	return op
}

// View gives a Mutate closure read access to the object being mutated. For
// replicated pools reads are local to the primary; for EC pools data reads
// gather shards (and are charged accordingly). Each call answers as of the
// instant it is made, also after the closure parks (an EC view's Read parks).
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
	// Version returns the version of the copy read (0 if absent; §6.1).
	Version() uint64
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
func (v replView) Version() uint64                        { return v.st.Version(v.k) }

// --- Public operations -------------------------------------------------------

// Write writes data at offset off (replicated pools write in place; EC
// pools rewrite the stripe rows the write touches).
func (g *Gateway) Write(p *sim.Proc, pool *Pool, oid string, off int64, data []byte) error {
	return g.mutate(p, &g.c.ops.write, pool, oid, len(data), store.NewTxn().Write(off, data), nil)
}

// WriteFull replaces the object's contents. data stays the caller's (Own).
func (g *Gateway) WriteFull(p *sim.Proc, pool *Pool, oid string, data []byte) error {
	payload, _ := pool.Own(data)
	return g.mutate(p, &g.c.ops.writeFull, pool, oid, len(data), store.NewTxn().WriteFull(payload), nil)
}

// Own returns the payload a full write of data into the pool ships, so
// that data stays the caller's once the write returns, and whether the
// pool keeps that payload itself. A replicated pool does: its replicas share
// the one copy made here. An erasure pool keeps only the fresh shards its
// encode splits the payload into, so data itself is shipped and nothing
// keeps it.
func (pool *Pool) Own(data []byte) (payload []byte, kept bool) {
	if pool.Red.Kind == Erasure {
		return data, false
	}
	return bytes.Clone(data), true
}

// Delete removes the object.
func (g *Gateway) Delete(p *sim.Proc, pool *Pool, oid string) error {
	return g.mutate(p, &g.c.ops.del, pool, oid, 0, store.NewTxn().Delete(), nil)
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

// ReadBorrowed is Read for a caller that only looks at the bytes (the dedup
// scrub hashes them and keeps nothing). The result is read-only: on a
// replicated pool it is the serving OSD's stored bytes as of the instant Read
// would have copied them.
func (g *Gateway) ReadBorrowed(p *sim.Proc, pool *Pool, oid string, off, length int64) ([]byte, error) {
	return g.tracedRead(p, pool, oid, off, length, nil, true)
}

func (g *Gateway) tracedRead(p *sim.Proc, pool *Pool, oid string, off, length int64, dst []byte, borrow bool) ([]byte, error) {
	op := g.startOp(p, &g.c.ops.read, pool, oid, 0)
	data, err := g.read(p, pool, oid, off, length, dst, borrow)
	op.Span.SetBytes(int64(len(data)))
	op.Finish(p, err)
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
	g.c.netSend(p, g.cls, serving.host.nicSched, g.nic, len(data))
	g.c.netSend(p, g.cls, g.nic, serving.host.nicSched, len(data))
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
// object: the acting primary when it is alive and its copy is current (for a
// deleted object, absent: it reports not-found). If the primary's process is
// dead (crashed but not yet marked down) the op pays the request timeout
// first. Otherwise — a dead primary, or one that missed writes or has not yet
// received the object after a remap — a surviving replica or any live in-map
// OSD with a current copy serves: the degraded-read path. If none can, the op
// fails with Cluster.unavailable's error.
func (g *Gateway) servingOSD(p *sim.Proc, pool *Pool, oid string) (*osd, error) {
	acting := g.c.acting(pool, g.c.PGOf(pool, oid))
	if len(acting) == 0 {
		return nil, ErrNoOSD
	}
	key := store.Key{Pool: pool.ID, OID: oid}
	o := g.c.servingCopy(acting, key)
	if o == acting[0] {
		return o, nil
	}
	if !acting[0].alive {
		g.timeoutWait(p) // request to the dead primary times out first
	}
	if o == nil {
		return nil, g.c.unavailable(key)
	}
	if g.c.head[key] != 0 { // not a not-found answer: another copy stands in
		g.c.reg.Counter("rados_degraded_reads_total").Inc()
	}
	return o, nil
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
	if errors.Is(err, ErrNotFound) {
		return false, nil
	} else if err != nil {
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
	return g.mutate(p, &g.c.ops.mutate, pool, oid, payload, nil, fn)
}

// mutate is every mutation's one path: it opens the op's span under its own
// kind and serves the shipped txn or fn by the pool's kind.
func (g *Gateway) mutate(p *sim.Proc, st *metrics.OpStats, pool *Pool, oid string, payload int, txn *store.Txn, fn MutateFn) error {
	op := g.startOp(p, st, pool, oid, payload)
	var err error
	if pool.Red.Kind == Erasure {
		err = g.ecMutate(p, pool, oid, payload, txn, fn)
	} else {
		err = g.replMutate(p, pool, oid, payload, txn, fn)
	}
	op.Finish(p, err)
	return err
}

// --- Internal plumbing -------------------------------------------------------

// replMutate serves a replicated-pool mutation — a shipped txn (Write,
// WriteFull, Delete) or a Mutate's fn — in the order a Ceph OSD does, so the
// PG lock guards the primary's own work only: the request crosses both links;
// under the lock the primary runs fn and commits the txn; the lock is released
// while the journal write and the replica legs run; once all are done the ack
// travels back. A pull or fn that fails answers at once, and the answer costs
// the same hop as an ack. A shipped txn counts as a foreground op of its
// payload whatever its outcome.
func (g *Gateway) replMutate(p *sim.Proc, pool *Pool, oid string, payload int, txn *store.Txn, fn MutateFn) error {
	if fn == nil {
		defer g.noteOp(payload)
	}
	pg := g.c.PGOf(pool, oid)
	primary, err := g.prepare(p, pool, pg)
	if err != nil {
		return err
	}
	g.request(p, primary, payload, fn != nil && payload == 0)
	hold := g.c.lockPG(p, pool, pg)
	err = g.pullOnDemand(p, pool, oid, primary)
	if err == nil && fn != nil {
		txn, err = g.mutateTxn(p, pool, oid, primary, replView{st: primary.store, k: store.Key{Pool: pool.ID, OID: oid}}, fn)
	}
	if err != nil {
		hold.release(p)
		p.Sleep(g.c.cost.NetLatency) // the error reply
		return err
	}
	wait := func() {}
	if txn != nil {
		wait, err = g.replicate(p, pool, oid, txn)
	}
	hold.release(p)
	if err != nil {
		return err
	}
	wait()
	p.Sleep(g.c.cost.NetLatency) // ack
	if fn != nil && txn != nil {
		g.noteOp(max(payload, txn.Bytes()))
	}
	return nil
}

// request charges a mutation's trip to the primary: the payload serializes
// out of the client's link and into the primary host's link (even an empty
// one), or a bare call — a Mutate with no payload — costs one hop's latency.
func (g *Gateway) request(p *sim.Proc, primary *osd, payload int, bare bool) {
	if bare {
		p.Sleep(g.c.cost.NetLatency)
		return
	}
	g.c.netSend(p, g.cls, g.nic, primary.host.nicSched, payload)
	g.c.netSend(p, g.cls, primary.host.nicSched, g.nic, payload)
}

// mutateTxn is the primary's half of a Mutate on either pool kind, run under
// the PG lock once the request has arrived: it runs fn against v and returns
// the transaction to apply, or nil when fn aborted or left nothing to change
// (the op is then accounted; the caller acks it unless fn failed).
func (g *Gateway) mutateTxn(p *sim.Proc, pool *Pool, oid string, primary *osd, v View, fn MutateFn) (*store.Txn, error) {
	primary.host.cpu.Use(p, g.c.cost.OpOverhead)
	// A mutation on the indexed pool (chunk create-or-ref, refcount update)
	// first resolves the fingerprint through the index.
	g.fpProbe(p, pool, oid, primary)
	txn, err := fn(v)
	if err != nil || txn == nil || txn.Empty() {
		g.noteOp(0)
		return nil, err
	}
	return txn, nil
}

// prepare resolves a mutation's acting primary. A mutation against a dead
// primary pays the request timeout and fails with the retryable ErrOSDDown,
// and so does one on an EC pool while fewer than k acting members are alive,
// since it could not reach durability.
func (g *Gateway) prepare(p *sim.Proc, pool *Pool, pg crush.PG) (*osd, error) {
	acting := g.c.acting(pool, pg)
	if len(acting) == 0 {
		return nil, ErrNoOSD
	}
	alive := 0
	for _, o := range acting {
		if o.alive {
			alive++
		}
	}
	if !acting[0].alive || pool.Red.Kind == Erasure && alive < pool.Red.K {
		g.timeoutWait(p)
		return nil, ErrOSDDown
	}
	return acting[0], nil
}

// pullOnDemand makes the primary's copy current before a mutation runs
// against it — Ceph's recover-on-demand: if the primary lacks the current
// copy (the PG moved and Recover has not caught up, or it missed writes while
// down), it pulls it from a live in-map holder, so a partial write or
// chunk-map update never applies to nothing or to stale bytes. While the
// current copy sits only on OSDs that cannot serve, the op fails retryably. A
// stale copy of a deleted object, or of a lost one (no current copy left
// anywhere), is dropped instead, and the mutation runs as on a deleted
// object. Caller holds the PG lock.
func (g *Gateway) pullOnDemand(p *sim.Proc, pool *Pool, oid string, primary *osd) error {
	key := store.Key{Pool: pool.ID, OID: oid}
	switch {
	case g.c.current(primary, key):
		return nil
	case g.c.head[key] != 0:
		if src := g.c.liveInMapHolder(key); src != nil { // never the stale primary
			if _, ok := g.c.copyObject(p, g.cls, key, src, primary); ok {
				g.c.reg.Counter("rados_ondemand_pulls_total").Inc()
				return nil
			}
		}
		if err := g.c.unavailable(key); err != ErrNotFound {
			return err
		}
	}
	primary.remove(p, key)
	return nil
}

// fanout describes one replica/shard fan-out: the shared shape behind every
// replicated and EC mutation in the I/O path. Targets failing the ok
// predicate are skipped (optionally counted as one degraded write); a
// skipped copy keeps its old version, so it is stale from then on.
type fanout struct {
	name     string    // child proc name
	span     sim.Label // per-child trace span (0 = untraced children)
	pool     *Pool
	pg       crush.PG
	bytes    int // payload bytes recorded on child spans
	targets  []*osd
	ok       func(i int, o *osd) bool
	degraded bool // count skipped targets as a degraded write
	do       func(q *sim.Proc, i int, o *osd)
}

// startFanout spawns a fan-out — one concurrent child per eligible target,
// skipped targets counted — and returns the children's signals. Every
// fanned-out mutation goes through here, so the QoS-classed submit path of
// replica/shard work changes in one place.
func (g *Gateway) startFanout(p *sim.Proc, f fanout) []*sim.Signal {
	skipped := false
	sigs := make([]*sim.Signal, 0, len(f.targets))
	for i, o := range f.targets {
		if f.ok != nil && !f.ok(i, o) {
			skipped = true
			continue
		}
		sigs = append(sigs, p.Go(f.name, func(q *sim.Proc) {
			if f.span != 0 {
				sp := g.c.sink.StartLabel(q, f.span).SetOp(f.pool.label, f.pool.pgLabel(f.pg), int64(f.bytes)).SetClass(g.cls.Label())
				defer sp.Finish(q)
			}
			f.do(q, i, o)
		}))
	}
	if skipped && f.degraded {
		g.c.reg.Counter("rados_degraded_writes_total").Inc()
	}
	return sigs
}

// runFanout runs a fan-out to completion: an EC mutation waits for its
// shards under its PG lock.
func (g *Gateway) runFanout(p *sim.Proc, f fanout) { sim.WaitAll(p, g.startFanout(p, f)...) }

// replicate commits txn at the primary and fans it out to the replicas
// (primary-copy replication). Caller holds the PG lock and has made the
// primary's copy current. The mutation gets a new version, stamped on every
// copy it is applied to, and the head follows the primary's copy: that is the
// commit. replicate returns once the primary's journal write and the replica
// legs are under way; wait returns when all are done, timing the legs into
// rados_replica_apply:<pool>. Crashed acting members are skipped (a degraded
// write) and keep their copy, stale from then on.
func (g *Gateway) replicate(p *sim.Proc, pool *Pool, oid string, txn *store.Txn) (wait func(), err error) {
	pg := g.c.PGOf(pool, oid)
	acting := g.c.acting(pool, pg)
	if len(acting) == 0 {
		return nil, ErrNoOSD
	}
	primary := acting[0]
	if !primary.alive {
		g.timeoutWait(p)
		return nil, ErrOSDDown
	}
	key := store.Key{Pool: pool.ID, OID: oid}
	cost, payload, prev := g.c.cost, txn.Bytes(), primary.store.Version(key)

	primary.host.cpu.Use(p, cost.OpOverhead+cost.Checksum(payload))
	if err := primary.apply(p, key, txn.Stamp(g.c.nextVersion())); err != nil {
		return nil, err
	}
	g.c.setHead(key, primary.store.Version(key))
	commit := p.Now()
	journal := p.Go("journal", func(q *sim.Proc) {
		jsp := g.c.sink.StartLabel(q, spanJournal).SetOp(pool.label, pool.pgLabel(pg), int64(payload)).SetClass(g.cls.Label())
		primary.diskWrite(q, g.cls, cost, payload)
		jsp.Finish(q)
	})
	legs := g.startFanout(p, fanout{
		name: "replica", span: spanReplica,
		pool: pool, pg: pg, bytes: payload,
		targets:  acting[1:],
		ok:       func(_ int, o *osd) bool { return o.alive },
		degraded: true,
		do: func(q *sim.Proc, _ int, r *osd) {
			g.c.netSend(q, g.cls, r.host.nicSched, primary.host.nicSched, payload)
			r.host.cpu.Use(q, cost.OpOverhead)
			g.replicaApply(q, primary, r, key, prev, txn)
		},
	})
	return func() {
		if len(legs) > 0 {
			sim.WaitAll(p, legs...)
			pool.replApply.Add((p.Now() - commit).Duration())
		}
		sim.WaitAll(p, journal)
	}, nil
}

// replicaApply lands, on replica r, the leg of a mutation of key the primary
// applied at version prev — in version order, whatever order legs arrive in.
// A copy already current (a later leg's heal covered it) is left alone and a
// copy at prev takes the delta. Any other copy is healed with the primary's
// current copy, which install refuses if the head moves in flight (a later
// leg then heals it).
func (g *Gateway) replicaApply(q *sim.Proc, primary, r *osd, key store.Key, prev uint64, txn *store.Txn) {
	switch v := r.store.Version(key); {
	case v == g.c.head[key]: // current (cluster.go)
	case v != prev:
		if snap, err := primary.store.Snapshot(key); err == nil {
			g.c.netSend(q, g.cls, r.host.nicSched, primary.host.nicSched, snap.PayloadBytes())
			if g.c.install(q, r, key, snap) {
				r.diskWrite(q, g.cls, g.c.cost, snap.PayloadBytes())
				g.c.reg.Counter("rados_replica_heals_total").Inc()
			}
		} else if g.c.head[key] == 0 { // deleted since: the stale copy goes too
			r.remove(q, key)
		}
	case r.apply(q, key, txn) != nil:
		// The replica's copy diverged from the primary. It keeps its old
		// version, so it is stale until the next write heals it or a repair
		// scrub or Recover overwrites it.
		g.c.reg.Counter("rados_replica_diverged_total").Inc()
	default:
		r.diskWrite(q, g.cls, g.c.cost, txn.Bytes())
	}
}

// PeekXattr reads an xattr from the acting primary without charging a
// separate round trip. It models a server-side sub-step of an enclosing
// operation (e.g. the dedup read path's chunk-map lookup, §4.5 read step 3,
// which the primary performs while handling the read) — the enclosing op's
// OpOverhead covers it. When the primary is dead or its copy stale the xattr
// is served from another current copy; untimed, because the enclosing op
// already paid the failover timeout when it selected its serving OSD.
func (g *Gateway) PeekXattr(pool *Pool, oid, name string) ([]byte, error) {
	acting := g.c.acting(pool, g.c.PGOf(pool, oid))
	if len(acting) == 0 {
		return nil, ErrNoOSD
	}
	key := store.Key{Pool: pool.ID, OID: oid}
	if o := g.c.servingCopy(acting, key); o != nil {
		return o.store.GetXattr(key, name)
	}
	return nil, g.c.unavailable(key)
}

// ClientXfer charges the client-side link for n bytes delivered to this
// gateway — used by layered services (e.g. dedup read redirection) whose
// final hop is proxied through a storage node back to the client. Like an
// OSD→OSD leg it occupies only the receiver's link; the proxy's end is not
// named, so the hop is never taken for a local one.
func (g *Gateway) ClientXfer(p *sim.Proc, n int) {
	g.c.netSend(p, g.cls, g.nic, nil, n)
}

// PrimaryHost returns the host of the acting primary for an object — where
// server-side dedup logic (redirection, background flush) runs.
func (c *Cluster) PrimaryHost(pool *Pool, oid string) (string, error) {
	_, hostName, err := c.PGPrimary(pool, c.PGOf(pool, oid).Seq)
	return hostName, err
}

// PGPrimary names the acting primary of the pool's PG seq: its OSD id and
// host. It fails with ErrNoOSD when none of the PG's OSDs is up.
func (c *Cluster) PGPrimary(pool *Pool, seq uint32) (osdID int, hostName string, err error) {
	acting := c.acting(pool, crush.PG{Pool: pool.ID, Seq: seq})
	if len(acting) == 0 {
		return -1, "", ErrNoOSD
	}
	return acting[0].id, acting[0].host.name, nil
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
		return &ecView{g: g, p: p, pool: pool, oid: oid}, nil
	}
	return replView{st: serving.store, k: store.Key{Pool: pool.ID, OID: oid}}, nil
}
