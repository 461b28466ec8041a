package rados

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"dedupstore/internal/ec"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// EC object layout: object data is striped across K data shards in
// StripeUnit rows (row r, unit u of the row lives in shard u at shard
// offset r*StripeUnit), so any read larger than one stripe unit touches
// several OSDs — the "widely spread chunks" effect the paper observes for
// EC random reads (§6.4.1). Parity shards are Reed–Solomon over the data
// shards. Every shard object stores its shard index and the logical object
// length in xattrs; pool-level metadata (xattr/omap) is mirrored on every
// shard so metadata reads are local to the primary.
const (
	xattrECIdx = "ec.idx"
	xattrECLen = "ec.len"
	// StripeUnit is the striping granularity (Ceph's default 4K).
	StripeUnit = 4096
)

// ErrECDataOp is returned when a mutation of an EC object carries more than
// one data op (Write, WriteFull or Delete), or a Truncate or Zero.
var ErrECDataOp = errors.New("rados: an EC mutation takes at most one Write, WriteFull or Delete, and no Truncate or Zero")

func (c *Cluster) codecFor(p *Pool) *ec.Codec {
	if p.codec == nil {
		cd, err := ec.New(p.Red.K, p.Red.M)
		if err != nil {
			panic(fmt.Sprintf("rados: pool %s codec: %v", p.Name, err))
		}
		p.codec = cd
	}
	return p.codec
}

func putU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func getU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// stripeSplit distributes data into k shards of equal size (padded).
func stripeSplit(data []byte, k int) [][]byte {
	rows := max((len(data)+StripeUnit*k-1)/(StripeUnit*k), 1)
	shardSize := rows * StripeUnit
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = make([]byte, shardSize)
	}
	for pos := 0; pos < len(data); pos += StripeUnit {
		unit := pos / StripeUnit
		shard := unit % k
		soff := unit / k * StripeUnit
		copy(shards[shard][soff:], data[pos:min(pos+StripeUnit, len(data))])
	}
	return shards
}

// stripeJoin reassembles logical bytes [off, off+length) from shard
// segments that each cover shard rows [row0, row1), into dst when the caller
// brought a buffer (of at least length bytes) and into a fresh one when dst
// is nil. A segment may stop short of row1: a short shard tail reads as zeros.
func stripeJoin(segments [][]byte, k int, row0 int, off, length, totalLen int64, dst []byte) []byte {
	end := min(off+length, totalLen)
	if off >= end {
		return nil
	}
	if dst == nil {
		dst = make([]byte, end-off)
	}
	out := dst[:end-off]
	for pos := off; pos < end; {
		unit := pos / StripeUnit
		shard := int(unit) % k
		row := int(unit) / k
		inUnit := pos % StripeUnit
		n := min(StripeUnit-inUnit, end-pos)
		soff := int64(row-row0)*StripeUnit + inUnit
		piece, seg := out[pos-off:pos-off+n], segments[shard]
		copied := copy(piece, seg[min(soff, int64(len(seg))):])
		clear(piece[copied:]) // past a short shard's end
		pos += n
	}
	return out
}

// rowRange returns the stripe-row span covering [off, off+length).
func rowRange(off, length int64, k int) (row0, row1 int) {
	stripe := int64(StripeUnit * k)
	row0 = int(off / stripe)
	row1 = int((off + length + stripe - 1) / stripe)
	return row0, row1
}

// ecHolders returns, for each shard index, the want-set OSD serving it: up,
// alive and holding a current shard (nil if there is none).
func (c *Cluster) ecHolders(p *Pool, oid string) []*osd {
	pg := c.PGOf(p, oid)
	want := c.want(p, pg)
	holders := make([]*osd, p.Red.K+p.Red.M)
	key := store.Key{Pool: p.ID, OID: oid}
	head := c.head[key]
	for _, o := range want[:min(len(want), len(holders))] {
		if !c.upAlive(o) {
			continue // a down or crashed holder cannot serve its shard
		}
		v, x, ok := o.store.VersionXattr(key, xattrECIdx)
		if !ok || v != head {
			continue // no shard, or a stale one (current's rule, DESIGN.md §6.1)
		}
		idx := int(getU64(x))
		if idx >= 0 && idx < len(holders) {
			holders[idx] = o
		}
	}
	return holders
}

// ecLost reports whether fewer than k distinct current shards of key, an
// object of EC pool p, survive on any OSD, dead, down or out ones included:
// the object can never be read again. An object without a head counts as lost.
func (c *Cluster) ecLost(p *Pool, key store.Key) bool {
	idx := make(map[uint64]bool)
	for _, o := range c.allOSDs() {
		if c.head[key] != 0 && c.current(o, key) {
			idx[getU64(mustXattr(o.store, key, xattrECIdx))] = true
		}
	}
	return len(idx) < p.Red.K
}

// withMeta appends to txn the ops that give a shard obj's xattrs and omap —
// the mirrored metadata a shard written from nothing takes from a current
// one. The values are shared, not copied.
func withMeta(txn *store.Txn, obj *store.Object) *store.Txn {
	for name, v := range obj.Xattr {
		txn.SetXattr(name, v)
	}
	for name, v := range obj.Omap {
		txn.OmapSet(name, v)
	}
	return txn
}

func mustXattr(st *store.Store, k store.Key, name string) []byte {
	v, err := st.GetXattr(k, name)
	if err != nil {
		return nil
	}
	return v
}

// ecCoord selects the OSD coordinating an EC read: the acting primary when
// alive, otherwise (after the request timeout) the first surviving acting
// member — the degraded fan-in point.
func (g *Gateway) ecCoord(p *sim.Proc, pool *Pool, oid string) (*osd, error) {
	acting := g.c.acting(pool, g.c.PGOf(pool, oid))
	if len(acting) == 0 {
		return nil, ErrNoOSD
	}
	if acting[0].alive {
		return acting[0], nil
	}
	g.timeoutWait(p)
	for _, o := range acting[1:] {
		if o.alive {
			return o, nil
		}
	}
	return nil, ErrOSDDown
}

// --- Write paths -------------------------------------------------------------

// ecApplyFull encodes data, writes all shards and acks; meta, a
// metadata-only txn, is mirrored onto every shard. Run by ecMutate; the
// primary that encodes is the acting one now, after the request's trip.
func (g *Gateway) ecApplyFull(p *sim.Proc, pool *Pool, oid string, data []byte, meta *store.Txn) error {
	cost := g.c.cost
	pg := g.c.PGOf(pool, oid)
	acting := g.c.acting(pool, pg)
	if len(acting) == 0 {
		return ErrNoOSD
	}
	primary := acting[0]
	want := g.c.want(pool, pg)
	key := store.Key{Pool: pool.ID, OID: oid}
	// A down or crashed member is skipped (degraded); recovery rebuilds it.
	targets := make([]*osd, min(len(want), pool.Red.K+pool.Red.M))
	behind := false
	for pos := range targets {
		if g.c.upAlive(want[pos]) {
			targets[pos] = want[pos]
			behind = behind || !g.c.current(want[pos], key)
		}
	}
	// A member whose shard is not current gets the whole post-write shard:
	// its copy is dropped and the object's metadata comes from a current
	// holder. An object that does not exist or is lost (ecLost) starts afresh
	// on every member. While the metadata is only on OSDs that cannot serve,
	// the write is refused (retryably) rather than drop it.
	var tmpl *store.Object
	fresh := false
	if behind {
		if fresh = g.c.ecLost(pool, key); !fresh {
			h := firstShard(g.c.ecHolders(pool, oid))
			if h == nil {
				g.timeoutWait(p)
				return ErrOSDDown
			}
			tmpl, _ = h.store.Snapshot(key)
		}
	}
	// The shards are split and encoded before the encode's charge parks:
	// data may be a caller's scratch buffer, of which they are the one copy.
	shards, err := g.c.codecFor(pool).Encode(stripeSplit(data, pool.Red.K))
	if err != nil {
		return err
	}
	primary.host.cpu.Use(p, cost.OpOverhead+cost.Checksum(len(data))+cost.ECEncode(len(data)))
	g.runFanout(p, fanout{
		name: "ec-shard",
		pool: pool, pg: pg,
		targets:  targets,
		ok:       func(_ int, o *osd) bool { return o != nil },
		degraded: true,
		do: func(q *sim.Proc, pos int, target *osd) {
			txn := store.NewTxn()
			if fresh || !g.c.current(target, key) {
				txn.Delete()
				if tmpl != nil {
					withMeta(txn, tmpl)
				}
			}
			txn.WriteFull(shards[pos]).
				SetXattr(xattrECIdx, putU64(uint64(pos))).
				SetXattr(xattrECLen, putU64(uint64(len(data))))
			txn.Ops = append(txn.Ops, meta.Ops...)
			if target != primary {
				g.c.netSend(q, g.cls, target.host.nicSched, primary.host.nicSched, len(shards[pos]))
				target.host.cpu.Use(q, cost.OpOverhead)
			}
			if err := target.apply(q, key, txn); err != nil {
				panic(fmt.Sprintf("rados: ec shard apply: %v", err))
			}
			target.diskWrite(q, g.cls, cost, txn.Bytes())
		},
	})
	g.c.commitShards(key, targets)
	p.Sleep(cost.NetLatency) // ack
	return nil
}

// ecApplyRows performs a partial write with a row-aligned read-modify-write
// of only the stripes the write touches (Ceph EC-overwrite style): the rows
// covering [off, off+len) are gathered, patched, re-encoded, and all k+m
// shard segments rewritten — the "parity calculation ... and
// read-modify-write according to write size" penalty of §6.4.1. meta is
// mirrored onto every shard written. Run by ecMutate, which has resolved
// primary; a gather that fails answers at once, at the cost of an ack hop.
func (g *Gateway) ecApplyRows(p *sim.Proc, pool *Pool, oid string, primary *osd, off int64, data []byte, meta *store.Txn) error {
	pg := g.c.PGOf(pool, oid)
	cost := g.c.cost
	k := pool.Red.K
	codec := g.c.codecFor(pool)
	holders := g.c.ecHolders(pool, oid)
	oldLen := ecLen(pool, oid, holders)
	end := off + int64(len(data))
	newLen := max(oldLen, end)
	row0, row1 := rowRange(off, int64(len(data)), k)
	stripe := int64(StripeUnit * k)

	// Gather the existing bytes of the affected rows (zeros beyond EOF).
	rowBytes := make([]byte, (int64(row1)-int64(row0))*stripe)
	if oldLen > int64(row0)*stripe {
		readLen := min(oldLen, int64(row1)*stripe) - int64(row0)*stripe
		if _, err := g.ecGather(p, pool, oid, holders, int64(row0)*stripe, readLen, rowBytes[:readLen]); err != nil && err != ErrNotFound {
			p.Sleep(cost.NetLatency) // the error reply
			g.noteOp(0)
			return err
		}
	}
	copy(rowBytes[off-int64(row0)*stripe:], data)

	// Re-encode just these rows (parity is bytewise, so row segments encode
	// independently of the rest of the object).
	primary.host.cpu.Use(p, cost.OpOverhead+cost.Checksum(len(data))+cost.ECEncode(len(rowBytes)))
	shards, err := codec.Encode(stripeSplit(rowBytes, k))
	if err != nil {
		g.noteOp(0)
		return err
	}
	segLen := (row1 - row0) * StripeUnit
	for i := range shards {
		if len(shards[i]) > segLen {
			shards[i] = shards[i][:segLen]
		}
	}

	want := g.c.want(pool, pg)
	key := store.Key{Pool: pool.ID, OID: oid}
	// A partial row write can only be applied onto the matching current
	// shard. A target whose shard is absent or stale (it missed writes) or
	// carries another index (remap permutation) would be corrupted by it;
	// it is skipped and recovery rebuilds it. An object that does not exist
	// starts afresh on every member: a stale copy left from an earlier one
	// lends it no rows or metadata.
	fresh := g.c.head[key] == 0
	targets := make([]*osd, min(len(want), len(shards)))
	nEligible := 0
	for pos := range targets {
		o := want[pos]
		if !g.c.upAlive(o) || !fresh && (!g.c.current(o, key) ||
			int(getU64(mustXattr(o.store, key, xattrECIdx))) != pos) {
			continue
		}
		targets[pos] = o
		nEligible++
	}
	if nEligible < k {
		// Too few intact shard targets to keep the new rows reconstructable;
		// refuse (retryably) rather than lose data. Recovery or the failure
		// detector will restore enough targets.
		g.timeoutWait(p)
		g.noteOp(0)
		return ErrOSDDown
	}
	g.runFanout(p, fanout{
		name: "ec-rmw",
		pool: pool, pg: pg,
		targets:  targets,
		ok:       func(_ int, o *osd) bool { return o != nil },
		degraded: true,
		do: func(q *sim.Proc, pos int, target *osd) {
			// EC overwrites commit in two sequential phases per shard
			// (prepare: ship + log the new rows; commit: apply them) so all
			// k+m shards stay mutually consistent — Ceph's EC-overwrite
			// protocol, and the §6.4.1 random-write penalty: two round
			// trips and two durable writes per shard.
			txn := store.NewTxn()
			if fresh {
				txn.Delete()
			}
			txn.Write(int64(row0)*StripeUnit, shards[pos]).
				SetXattr(xattrECIdx, putU64(uint64(pos))).
				SetXattr(xattrECLen, putU64(uint64(newLen)))
			txn.Ops = append(txn.Ops, meta.Ops...)
			if target != primary {
				g.c.netSend(q, g.cls, target.host.nicSched, primary.host.nicSched, len(shards[pos]))
				target.host.cpu.Use(q, cost.OpOverhead)
			}
			target.diskWrite(q, g.cls, cost, txn.Bytes()) // phase 1: WAL
			q.Sleep(cost.NetLatency)                      // commit message
			target.host.cpu.Use(q, cost.OpOverhead)
			if err := target.apply(q, key, txn); err != nil {
				panic(fmt.Sprintf("rados: ec rmw apply: %v", err))
			}
			target.diskWrite(q, g.cls, cost, txn.Bytes()) // phase 2: apply
		},
	})
	g.c.commitShards(key, targets)
	p.Sleep(cost.NetLatency) // ack
	g.noteOp(len(data))
	return nil
}

// --- Read paths --------------------------------------------------------------

// ecLen returns the logical object length a current shard records, given
// holders, ecHolders' answer (0 if there is no current shard).
func ecLen(pool *Pool, oid string, holders []*osd) int64 {
	if o := firstShard(holders); o != nil {
		return int64(getU64(mustXattr(o.store, store.Key{Pool: pool.ID, OID: oid}, xattrECLen)))
	}
	return 0
}

// firstShard returns the first holder ecHolders found, nil if there is none.
func firstShard(holders []*osd) *osd {
	if i := slices.IndexFunc(holders, func(o *osd) bool { return o != nil }); i >= 0 {
		return holders[i]
	}
	return nil
}

// ecGather reads logical bytes [off, off+length) by fetching the covering
// shard segments to the primary (reconstructing from parity when data
// shards are down) and reassembling — into dst when it is non-nil (length is
// then len(dst)), else into a fresh buffer. holders is ecHolders' answer of
// this instant: the object's length and existence come from it too.
func (g *Gateway) ecGather(p *sim.Proc, pool *Pool, oid string, holders []*osd, off, length int64, dst []byte) ([]byte, error) {
	cost := g.c.cost
	codec := g.c.codecFor(pool)
	k := pool.Red.K
	key := store.Key{Pool: pool.ID, OID: oid}
	if firstShard(holders) == nil {
		return nil, g.c.unavailable(key)
	}
	totalLen := ecLen(pool, oid, holders)
	if length < 0 || off+length > totalLen {
		length = totalLen - off
	}
	if off >= totalLen || length <= 0 {
		return nil, nil
	}
	primary, err := g.ecCoord(p, pool, oid)
	if err != nil {
		return nil, err
	}
	row0, row1 := rowRange(off, length, k)
	segLen := (row1 - row0) * StripeUnit

	dataMissing := slices.Contains(holders[:k], nil)
	segments := make([][]byte, len(holders))
	fetch := func(idx int) *sim.Signal {
		o := holders[idx]
		return p.Go("ec-read", func(q *sim.Proc) {
			// Borrowed, not copied: the span keeps the bytes of this instant
			// whatever is written to the shard while the transfer is charged.
			seg, err := o.store.Borrow(key, int64(row0)*StripeUnit, int64(segLen))
			if err != nil {
				return
			}
			if dataMissing && len(seg) < segLen { // Reconstruct wants equal sizes
				seg = append(make([]byte, 0, segLen), seg...)[:segLen]
			}
			o.diskRead(q, g.cls, cost, segLen)
			if o != primary {
				g.c.netSend(q, g.cls, primary.host.nicSched, o.host.nicSched, segLen)
			}
			segments[idx] = seg
		})
	}

	var sigs []*sim.Signal
	if !dataMissing {
		// Fast path: fetch exactly the data shards.
		for i := 0; i < k; i++ {
			sigs = append(sigs, fetch(i))
		}
		sim.WaitAll(p, sigs...)
	} else {
		// Degraded read: fetch any k shards and reconstruct the rest.
		got := 0
		for i := 0; i < len(holders) && got < k; i++ {
			if holders[i] != nil {
				sigs = append(sigs, fetch(i))
				got++
			}
		}
		if got < k {
			// Shards come back when dead holders restart or recovery
			// rebuilds them: retryable, unless too few survive anywhere.
			if g.c.ecLost(pool, key) {
				return nil, ec.ErrTooFew
			}
			return nil, ErrOSDDown
		}
		sim.WaitAll(p, sigs...)
		primary.host.cpu.Use(p, cost.ECEncode(segLen*k))
		if err := codec.Reconstruct(segments); err != nil {
			return nil, err
		}
		g.c.reg.Counter("rados_degraded_reads_total").Inc()
	}
	return stripeJoin(segments[:k], k, row0, off, length, totalLen, dst), nil
}

func (g *Gateway) ecRead(p *sim.Proc, pool *Pool, oid string, off, length int64, dst []byte) ([]byte, error) {
	p.Sleep(g.c.cost.NetLatency) // request
	data, err := g.ecGather(p, pool, oid, g.c.ecHolders(pool, oid), off, length, dst)
	if err != nil {
		g.noteOp(0)
		return nil, err
	}
	acting := g.c.acting(pool, g.c.PGOf(pool, oid))
	var from *qos.Scheduler // the replying member's link
	if i := slices.IndexFunc(acting, func(o *osd) bool { return o.alive }); i >= 0 {
		acting[i].host.cpu.Use(p, g.c.cost.OpOverhead)
		from = acting[i].host.nicSched
		g.c.netSend(p, g.cls, from, g.nic, len(data))
	}
	g.c.netSend(p, g.cls, g.nic, from, len(data))
	g.noteOp(len(data))
	return data, nil
}

// --- Mutate on EC pools ------------------------------------------------------

type ecView struct {
	g    *Gateway
	p    *sim.Proc
	pool *Pool
	oid  string
	// held is ecHolders' answer as of heldAt, the engine's dispatch count
	// when it was taken. Holders change only while p is parked, and p parks
	// only through a dispatch, so an equal count means the answer still
	// holds: a fn's Exists, Size and metadata reads and the mirror after it
	// share one scan, and a park — the fn's own Read, or any other — starts
	// a new one.
	held   []*osd
	heldAt int64
}

// holders returns ecHolders' answer, scanning again only if p has parked
// since the last scan.
func (v *ecView) holders() []*osd {
	if at := v.p.Engine().Stats().EventsDispatched; v.held == nil || at != v.heldAt {
		v.held, v.heldAt = v.g.c.ecHolders(v.pool, v.oid), at
	}
	return v.held
}

func (v *ecView) Exists() bool { return firstShard(v.holders()) != nil }
func (v *ecView) Size() int64  { return ecLen(v.pool, v.oid, v.holders()) }
func (v *ecView) Read(off, length int64) ([]byte, error) {
	return v.g.ecGather(v.p, v.pool, v.oid, v.holders(), off, length, nil)
}

// meta views the first current shard: every current shard mirrors the
// object's metadata. With none, it views an empty store (not found).
func (v *ecView) meta() replView {
	if o := firstShard(v.holders()); o != nil {
		return replView{st: o.store, k: store.Key{Pool: v.pool.ID, OID: v.oid}}
	}
	return replView{st: noShards}
}

// noShards is the empty store an ecView of an object without a current shard
// reads.
var noShards = store.New()

func (v *ecView) GetXattr(name string) ([]byte, error) { return v.meta().GetXattr(name) }
func (v *ecView) OmapGet(key string) ([]byte, error)   { return v.meta().OmapGet(key) }
func (v *ecView) OmapList(max int) ([]string, error)   { return v.meta().OmapList(max) }
func (v *ecView) Version() uint64                      { return v.meta().Version() }

// ecMutate serves an EC-pool mutation — a shipped txn (Write, WriteFull,
// Delete) or a Mutate's fn — holding the PG lock from before the request
// crosses the wire until after the ack; DESIGN.md §9 "What a PG lock covers"
// says why. The txn's one data op decides the work: a WriteFull re-encodes
// the object (ecApplyFull), a Write rewrites the stripe rows it touches
// (ecApplyRows), a Delete removes the shards; its metadata ops are mirrored
// onto every shard written, or alone onto every current holder. A fn that
// fails, or a txn the pool cannot apply, answers at once, and the answer
// costs the same hop as an ack.
func (g *Gateway) ecMutate(p *sim.Proc, pool *Pool, oid string, payload int, txn *store.Txn, fn MutateFn) error {
	pg := g.c.PGOf(pool, oid)
	defer g.c.lockPG(p, pool, pg).release(p)
	primary, err := g.prepare(p, pool, pg)
	if err != nil {
		g.noteOp(0)
		return err
	}
	g.request(p, primary, payload, fn != nil && payload == 0)
	v := &ecView{g: g, p: p, pool: pool, oid: oid}
	if fn != nil {
		if txn, err = g.mutateTxn(p, pool, oid, primary, v, fn); txn == nil {
			p.Sleep(g.c.cost.NetLatency) // ack, or the error reply
			return err
		}
	}
	var data store.Op // Kind 0: a metadata-only txn
	meta := store.NewTxn()
	for _, op := range txn.Ops {
		switch op.Kind {
		case store.OpWrite, store.OpWriteFull, store.OpDelete:
			if data.Kind != 0 {
				err = ErrECDataOp
			}
			data = op
		case store.OpTruncate, store.OpZero:
			err = ErrECDataOp
		case store.OpCreate:
			// no-op for EC; a shard comes into being with its data
		default:
			meta.Ops = append(meta.Ops, op)
		}
	}
	if err != nil {
		p.Sleep(g.c.cost.NetLatency) // the error reply
		g.noteOp(0)
		return err
	}
	key := store.Key{Pool: pool.ID, OID: oid}
	switch data.Kind {
	case store.OpWrite:
		return g.ecApplyRows(p, pool, oid, primary, data.Off, data.Data, meta)
	case store.OpWriteFull:
		err = g.ecApplyFull(p, pool, oid, data.Data, meta)
		g.noteOp(len(data.Data))
		return err
	case store.OpDelete:
		for _, o := range g.c.want(pool, pg) {
			if g.c.upAlive(o) {
				o.remove(p, key)
				o.diskWrite(p, g.cls, g.c.cost, 0)
			}
		}
		// Copies the delete could not reach — on dead holders or remap
		// strays — are stale once the head is gone, so they can never
		// resurrect the object.
		g.c.setHead(key, 0)
		p.Sleep(g.c.cost.NetLatency) // ack
		g.noteOp(0)
		return nil
	}
	// Metadata-only: mirror to all live current shard holders, at least k of
	// them. Stamped, fewer would be the only current shards and the object
	// lost; it is refused retryably until recovery fills the want set.
	holders := v.holders()
	if len(slices.DeleteFunc(slices.Clone(holders), func(o *osd) bool { return o == nil })) < pool.Red.K {
		g.noteOp(0)
		return g.c.unavailable(key)
	}
	g.runFanout(p, fanout{
		name: "ec-meta",
		pool: pool, pg: pg,
		targets: holders,
		ok:      func(_ int, o *osd) bool { return o != nil },
		do: func(q *sim.Proc, _ int, o *osd) {
			q.Sleep(g.c.cost.NetLatency)
			o.host.cpu.Use(q, g.c.cost.OpOverhead)
			if err := o.apply(q, key, meta); err != nil {
				panic(fmt.Sprintf("rados: ec meta apply: %v", err))
			}
			o.diskWrite(q, g.cls, g.c.cost, meta.Bytes())
		},
	})
	g.c.commitShards(key, holders)
	p.Sleep(g.c.cost.NetLatency) // ack
	g.noteOp(meta.Bytes())
	return nil
}
