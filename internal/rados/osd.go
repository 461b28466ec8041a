package rados

import (
	"time"

	"dedupstore/internal/fpindex"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
	"dedupstore/internal/store"
)

type host struct {
	name string
	nic  *sim.Resource
	cpu  *sim.Resource
	// nicSched is the QoS admission gate in front of nic: every NIC
	// serialization on this host goes through it under an I/O class.
	nicSched *qos.Scheduler
}

// osd is one object storage daemon. It owns its objects: every change to
// store goes through apply, install, remove or crash/restart/replace below
// (scripts/check-seams.sh enforces it), and each pairs the store change with
// the matching fingerprint-index change, so that for the indexed pool the
// index key set always equals the store key set (FPIndexVerify checks it).
type osd struct {
	id    int
	host  *host
	store *store.Store
	disk  *sim.Resource
	// sched is the per-OSD QoS op scheduler fronting disk: the single
	// admission point for every disk I/O, fair-queued across classes.
	sched *qos.Scheduler
	// slow scales disk service times: 1 is the cost model's SSD, and only a
	// slow-disk fault (SetOSDSlow) raises it.
	slow float64
	// alive models the OSD daemon process: false after a crash, true after
	// restart. Aliveness is orthogonal to the CRUSH up/in flags — a crashed
	// OSD stays "up" in the map until the heartbeat monitor's grace period
	// expires, which is exactly the degraded window chaos experiments probe.
	alive bool
	// fpidx is the OSD's log-structured fingerprint index over pool fpPool,
	// non-nil only when EnableFPIndex armed one. It refuses erasure pools, so
	// their shard writes fail the indexed guard and touch the store alone.
	fpidx  *fpindex.Index
	fpPool uint64
}

// diskRead charges a read of n bytes at this OSD's device speed, admitted
// through the OSD's QoS scheduler under the given class.
func (o *osd) diskRead(p *sim.Proc, cls qos.Class, cost simcost.Params, n int) {
	o.sched.Use(p, cls, time.Duration(float64(cost.DiskRead(n))*o.slow))
}

// diskWrite charges a durable write of n bytes at this OSD's device speed,
// admitted through the OSD's QoS scheduler under the given class.
func (o *osd) diskWrite(p *sim.Proc, cls qos.Class, cost simcost.Params, n int) {
	o.sched.Use(p, cls, time.Duration(float64(cost.DiskWrite(n))*o.slow))
}

// indexed reports whether the OSD's fingerprint index fronts key's pool. It
// is tested before the store is probed, so other pools pay nothing.
func (o *osd) indexed(key store.Key) bool {
	return o.fpidx != nil && key.Pool == o.fpPool
}

// apply executes txn on the OSD's copy of key. An indexed key's transition
// is recorded in the index — absent → present inserts, present → absent
// writes a tombstone — with the index's WAL write charged to p, or uncharged
// on a nil p (paths with no process context: bit-rot injection, an EC
// mutation's version stamp).
func (o *osd) apply(p *sim.Proc, key store.Key, txn *store.Txn) error {
	if !o.indexed(key) {
		return o.store.Apply(key, txn)
	}
	before := o.store.Exists(key)
	err := o.store.Apply(key, txn)
	switch after := o.store.Exists(key); {
	case !before && after:
		o.fpidx.Insert(p, key.OID, 0)
	case before && !after:
		o.fpidx.Delete(p, key.OID)
	}
	return err
}

// remove deletes the OSD's copy of key, if any.
func (o *osd) remove(p *sim.Proc, key store.Key) {
	_ = o.apply(p, key, store.NewTxn().Delete()) // a lone delete cannot fail
}

// install replaces the OSD's copy of key with a copy of obj.
func (o *osd) install(p *sim.Proc, key store.Key, obj *store.Object) {
	created := o.indexed(key) && !o.store.Exists(key)
	o.store.Install(key, obj)
	if created {
		o.fpidx.Insert(p, key.OID, 0)
	}
}

// probe looks an indexed key up in the index, charging the lookup to p, and
// reports whether the answer agrees with the store. The cross-check is safety
// code: a disagreement is a lockstep fault (fpindex_lookup_mismatch_total).
func (o *osd) probe(p *sim.Proc, key store.Key) (agrees bool) {
	return o.fpidx.Lookup(p, key.OID) == o.store.Exists(key)
}

// crash kills the daemon process. Objects, the index's WAL and its tables
// are on disk and survive; the index's memtable and block cache are RAM.
func (o *osd) crash() {
	o.alive = false
	if o.fpidx != nil {
		o.fpidx.Crash()
	}
}

// restart brings the process back: WAL replay restores the index to its
// crash point. Copies the OSD missed writes to stay, stale by version.
func (o *osd) restart() {
	if o.fpidx != nil {
		o.fpidx.Recover(nil)
	}
	o.alive = true
}

// replace swaps in a fresh device: store and index both start empty.
func (o *osd) replace() {
	o.store.Clear()
	if o.fpidx != nil {
		o.fpidx.Reset()
	}
	o.alive = true
}
