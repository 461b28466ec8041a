package rados

import (
	"fmt"
	"slices"
	"sort"

	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Failure and recovery: because the dedup design stores all of its state in
// ordinary self-contained objects (§3.2), the recovery engine below knows
// nothing about deduplication — it reconciles object placement for metadata
// objects and chunk objects exactly as for any other object, which is the
// paper's "storage features can be reused" claim, demonstrated by Table 3.

// FailOSD administratively marks an OSD down and out: its PGs remap and it
// stops serving. Unlike CrashOSD there is no detection window — this is the
// operator's `ceph osd out`.
func (c *Cluster) FailOSD(id int) error {
	if _, ok := c.osds[id]; !ok {
		return fmt.Errorf("rados: unknown osd %d", id)
	}
	c.cmap.SetUp(id, false)
	c.cmap.SetIn(id, false)
	return nil
}

// ReplaceOSD simulates the paper's Table 3 procedure ("removing and
// re-adding the OSD"): the OSD returns empty (fresh device) at the same
// CRUSH position, and recovery must re-fill it. It reports whether recovery
// work is still pending — i.e. whether any surviving OSD holds objects whose
// placement includes the fresh device — so callers know a Recover run is
// required before redundancy is restored.
func (c *Cluster) ReplaceOSD(id int) (recoveryPending bool, err error) {
	o, ok := c.osds[id]
	if !ok {
		return false, fmt.Errorf("rados: unknown osd %d", id)
	}
	o.replace()
	c.cmap.SetUp(id, true)
	c.cmap.SetIn(id, true)
	return c.recoveryPendingFor(id), nil
}

// recoveryPendingFor reports whether any object with a current copy on a live
// up OSD maps onto OSD id under the current CRUSH map while id itself lacks a
// current copy.
func (c *Cluster) recoveryPendingFor(id int) bool {
	fresh := c.osds[id]
	for _, sid := range c.cmap.UpOSDs() {
		src := c.osds[sid]
		if src == nil || src == fresh || !src.alive {
			continue
		}
		for _, key := range src.store.Keys() {
			pool := c.poolsByID[key.Pool]
			if pool == nil || !c.current(src, key) || c.current(fresh, key) {
				continue
			}
			if slices.Contains(c.want(pool, c.PGOf(pool, key.OID)), fresh) {
				return true
			}
		}
	}
	return false
}

// RecoveryStats reports one Recover run.
type RecoveryStats struct {
	Start, End     sim.Time
	BytesMoved     int64
	ObjectsCopied  int
	ObjectsDeleted int
	ShardsRebuilt  int
}

// Duration is the virtual time the recovery took.
func (rs RecoveryStats) Duration() sim.Time { return rs.End - rs.Start }

type recoveryTask struct {
	kind string // "copy", "rebuild", "delete"
	key  store.Key
	pool *Pool
	src  *osd // copy source (nil for rebuild/delete)
	dst  *osd
	idx  int // EC shard index for rebuild
}

// Recover reconciles object placement with the current CRUSH map: it
// re-replicates objects onto OSDs that should hold a current copy but do not
// (overwriting a stale one), rebuilds missing EC shards from surviving
// current shards, and removes copies that are no longer in their PG's
// mapping (rebalancing) or stale with nothing to overwrite them.
// Per-destination parallelism is bounded by the recovery class's QoS depth
// cap (Ceph's osd_recovery_max_active analog), and every byte it moves is
// admitted under the recovery class so foreground I/O keeps priority.
func (c *Cluster) Recover(p *sim.Proc) RecoveryStats {
	streamsPerOSD := max(c.qsched.MaxDepth(qos.Recovery), 1)
	stats := RecoveryStats{Start: p.Now()}

	// 1. Inventory: every copy an up OSD holds, current or stale.
	copies := make(map[store.Key][]*osd)
	for _, id := range c.cmap.UpOSDs() {
		o := c.osds[id]
		if !o.alive {
			continue // a crashed OSD can neither source nor report holdings
		}
		for _, key := range o.store.Keys() {
			copies[key] = append(copies[key], o)
		}
	}

	// Deterministic iteration order over objects.
	keys := make([]store.Key, 0, len(copies))
	for k := range copies {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Pool != keys[j].Pool {
			return keys[i].Pool < keys[j].Pool
		}
		return keys[i].OID < keys[j].OID
	})

	// 2. Plan per-destination task lists.
	perDst := make(map[int][]recoveryTask)
	plan := func(t recoveryTask) { perDst[t.dst.id] = append(perDst[t.dst.id], t) }

	for _, key := range keys {
		pool := c.poolsByID[key.Pool]
		if pool == nil {
			continue
		}
		want := c.want(pool, c.PGOf(pool, key.OID))
		// Only current copies are sources; an EC shard at index pos belongs
		// on want[pos].
		var holders []*osd
		shardHolder := make(map[int]*osd)
		for _, h := range copies[key] {
			if c.current(h, key) {
				holders = append(holders, h)
				if pool.Red.Kind == Erasure {
					shardHolder[int(getU64(mustXattr(h.store, key, xattrECIdx)))] = h
				}
			}
		}
		for pos, w := range want {
			if !c.inService(w) || len(holders) == 0 {
				continue
			}
			if pool.Red.Kind == Replicated {
				if slices.Contains(holders, w) {
					continue
				}
				// Prefer a source that is itself in the want set, else the first.
				src := holders[max(slices.IndexFunc(holders, func(h *osd) bool { return slices.Contains(want, h) }), 0)]
				plan(recoveryTask{kind: "copy", key: key, pool: pool, src: src, dst: w})
				continue
			}
			if cur := shardHolder[pos]; pos >= pool.Red.K+pool.Red.M || cur == w {
				continue
			} else if cur != nil {
				plan(recoveryTask{kind: "copy", key: key, pool: pool, src: cur, dst: w, idx: pos})
			} else {
				plan(recoveryTask{kind: "rebuild", key: key, pool: pool, dst: w, idx: pos})
			}
		}
		// A stale copy in the want set is overwritten above unless there is
		// no current copy to overwrite it with.
		for _, h := range copies[key] {
			if !slices.Contains(want, h) || !c.current(h, key) && len(holders) == 0 {
				plan(recoveryTask{kind: "delete", key: key, pool: pool, dst: h})
			}
		}
	}

	// 3. Execute in two phases: all copies/rebuilds first, then deletes.
	// Deletes must not run concurrently with copies — an out-of-map holder
	// may be the only source for a copy still in flight.
	runPhase := func(match func(kind string) bool) {
		var sigs []*sim.Signal
		dsts := make([]int, 0, len(perDst))
		for id := range perDst {
			dsts = append(dsts, id)
		}
		sort.Ints(dsts)
		for _, id := range dsts {
			var tasks []recoveryTask
			for _, t := range perDst[id] {
				if match(t.kind) {
					tasks = append(tasks, t)
				}
			}
			if len(tasks) > 0 {
				sigs = append(sigs, sim.Workers(p, fmt.Sprintf("recover.osd%d", id), len(tasks), streamsPerOSD, func(q *sim.Proc, i int) {
					c.runRecoveryTask(q, tasks[i], &stats)
				})...)
			}
		}
		sim.WaitAll(p, sigs...)
	}
	runPhase(func(kind string) bool { return kind != "delete" })
	runPhase(func(kind string) bool { return kind == "delete" })
	stats.End = p.Now()
	c.recovered += stats.BytesMoved
	c.reg.Counter("rados_recovery_runs_total").Inc()
	c.reg.Counter("rados_recovery_objects_copied_total").Add(int64(stats.ObjectsCopied))
	c.reg.Counter("rados_recovery_objects_deleted_total").Add(int64(stats.ObjectsDeleted))
	c.reg.Counter("rados_recovery_shards_rebuilt_total").Add(int64(stats.ShardsRebuilt))
	c.reg.Counter("rados_recovery_bytes_moved_total").Add(stats.BytesMoved)
	c.reg.Histogram("rados_recovery_duration").Add(stats.Duration().Duration())
	return stats
}

// copyObject ships src's copy of key to dst under QoS class cls: source
// read, one hop to the destination's NIC, the destination's op overhead,
// install, durable write. It reports the payload bytes moved, or ok=false
// when src no longer holds the object (nothing charged) or the install was
// refused (the read and the hop stay charged).
func (c *Cluster) copyObject(p *sim.Proc, cls qos.Class, key store.Key, src, dst *osd) (bytes int, ok bool) {
	snap, err := src.store.Snapshot(key)
	if err != nil {
		return 0, false
	}
	n := snap.PayloadBytes()
	src.diskRead(p, cls, c.cost, n)
	c.netSend(p, cls, dst.host.nicSched, src.host.nicSched, n)
	dst.host.cpu.Use(p, c.cost.OpOverhead)
	if !c.install(p, dst, key, snap) {
		return 0, false
	}
	dst.diskWrite(p, cls, c.cost, n)
	return n, true
}

// install puts snap on dst unless it is stale (staleInstall): no lock keeps
// the head still while a copy is in flight, so the check is made here.
func (c *Cluster) install(p *sim.Proc, dst *osd, key store.Key, snap *store.Object) bool {
	defer c.settle(p, key)()
	if c.staleInstall(key, snap.Version) {
		return false
	}
	dst.install(p, key, snap)
	return true
}

// settle waits out an EC mutation of key's PG, whose shards are stamped only
// at its commit (commitShards), by taking the PG lock; the returned func,
// called once the install is done, releases it. A replicated copy is stamped
// as it is written, so there is nothing to wait for: a replica leg's heal
// installs outside the lock, and pullOnDemand installs inside it.
func (c *Cluster) settle(p *sim.Proc, key store.Key) (done func()) {
	pool := c.poolsByID[key.Pool]
	if pool.Red.Kind != Erasure {
		return func() {}
	}
	hold := c.lockPG(p, pool, c.PGOf(pool, key.OID))
	return func() { hold.release(p) }
}

// staleInstall reports whether a copy of key at version v, about to be
// installed, is no longer current: a write or delete was acknowledged while
// it was in flight, and installing it would undo that. The refusal is
// counted; the work already done stays charged.
func (c *Cluster) staleInstall(key store.Key, v uint64) bool {
	if v == c.head[key] {
		return false
	}
	c.reg.Counter("rados_stale_installs_refused_total").Inc()
	return true
}

func (c *Cluster) runRecoveryTask(q *sim.Proc, t recoveryTask, stats *RecoveryStats) {
	sp := c.sink.StartLabel(q, spanRecover[t.kind]).
		SetOp(t.pool.label, t.pool.pgLabel(c.PGOf(t.pool, t.key.OID)), 0).
		SetClass(qos.Recovery.Label())
	defer sp.Finish(q)
	switch t.kind {
	case "delete":
		if c.current(t.dst, t.key) && slices.Contains(c.want(t.pool, c.PGOf(t.pool, t.key.OID)), t.dst) {
			return // a write brought this stale copy up to date since planning
		}
		t.dst.remove(q, t.key)
		t.dst.diskWrite(q, qos.Recovery, c.cost, 0)
		stats.ObjectsDeleted++
	case "copy":
		if n, ok := c.copyObject(q, qos.Recovery, t.key, t.src, t.dst); ok {
			stats.ObjectsCopied++
			stats.BytesMoved += int64(n)
		}
	case "rebuild":
		c.rebuildShard(q, t, stats)
	}
}

// rebuildShard reconstructs a missing EC shard from k surviving current
// shards. Like install, it refuses to apply a shard that is no longer current
// by the time it is rebuilt.
func (c *Cluster) rebuildShard(q *sim.Proc, t recoveryTask, stats *RecoveryStats) {
	cost := c.cost
	pool := t.pool
	codec := c.codecFor(pool)
	k, m := pool.Red.K, pool.Red.M
	if c.head[t.key] == 0 {
		// Deleted since planning. Without a head, OSDs lacking a copy would
		// also pass as current sources below, with no shard to read.
		return
	}

	// Find surviving shard holders.
	type src struct {
		osd *osd
		idx int
	}
	var srcs []src
	for _, id := range c.cmap.UpOSDs() {
		o := c.osds[id]
		if o == t.dst || !o.alive || !c.current(o, t.key) {
			continue
		}
		idx := int(getU64(mustXattr(o.store, t.key, xattrECIdx)))
		srcs = append(srcs, src{osd: o, idx: idx})
	}
	if len(srcs) < k {
		return // unrecoverable; scrub would flag this
	}
	shards := make([][]byte, k+m)
	var template *store.Object
	got := 0
	var sigs []*sim.Signal
	for _, s := range srcs {
		if got >= k {
			break
		}
		if s.idx < 0 || s.idx >= k+m || shards[s.idx] != nil {
			continue
		}
		got++
		snap, err := s.osd.store.Snapshot(t.key)
		if err != nil {
			continue
		}
		if template == nil {
			template = snap
		}
		shards[s.idx] = snap.Data
		sigs = append(sigs, q.Go("rebuild-read", func(r *sim.Proc) {
			s.osd.diskRead(r, qos.Recovery, cost, len(snap.Data))
			c.netSend(r, qos.Recovery, t.dst.host.nicSched, s.osd.host.nicSched, len(snap.Data))
		}))
	}
	if got < k || template == nil {
		return
	}
	sim.WaitAll(q, sigs...)
	shardLen := len(template.Data)
	t.dst.host.cpu.Use(q, cost.ECEncode(shardLen*k))
	if err := codec.Reconstruct(shards); err != nil {
		return
	}
	done := c.settle(q, t.key)
	if c.staleInstall(t.key, template.Version) {
		done()
		return
	}
	// The rebuilt shard replaces whatever dst held under the key: the
	// reconstructed data, a surviving shard's mirrored metadata (shared, not
	// copied), its own index, the version it was rebuilt at.
	txn := withMeta(store.NewTxn().Delete().WriteFull(shards[t.idx]).Stamp(template.Version), template)
	err := t.dst.apply(q, t.key, txn.SetXattr(xattrECIdx, putU64(uint64(t.idx))))
	done()
	if err != nil {
		return
	}
	t.dst.diskWrite(q, qos.Recovery, cost, shardLen)
	stats.ShardsRebuilt++
	stats.BytesMoved += int64(shardLen)
}
