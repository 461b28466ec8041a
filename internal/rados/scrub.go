package rados

import (
	"bytes"
	"fmt"
	"slices"

	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Scrub verifies stored redundancy, the storage feature the paper's
// self-contained-object design inherits for free: because dedup metadata
// and chunk payloads live in ordinary objects, one scrubber validates user
// data, chunk maps, reference tables and EC parity alike.

// ScrubError describes one inconsistency found by a scrub.
type ScrubError struct {
	Key    store.Key
	OSD    int // the OSD whose copy is inconsistent (-1 if structural)
	Detail string
}

func (e ScrubError) String() string {
	return fmt.Sprintf("%s on osd.%d: %s", e.Key, e.OSD, e.Detail)
}

// ScrubStats summarizes one scrub pass.
type ScrubStats struct {
	Objects      int
	BytesScanned int64
	Errors       []ScrubError
	Repaired     int
}

// Clean reports whether the scrub found no inconsistencies.
func (s ScrubStats) Clean() bool { return len(s.Errors) == 0 }

// Scrub deep-scrubs one pool: for replicated pools every acting member must
// hold a current copy whose payload and metadata match the authoritative one
// (the primary's, like Ceph's pg repair, unless it is stale); for EC pools
// the parity must verify and every shard's mirrored metadata must agree.
// With repair set, inconsistent or stale replicas are rewritten from the
// authoritative copy and missing EC redundancy is noted for Recover.
// Objects are scrubbed by a worker pool (sim.Workers) whose width is the
// scrub class's QoS depth cap — scrub paces itself purely through the
// scheduler — with per-object results merged back in oid order so the report
// stays deterministic.
func (c *Cluster) Scrub(p *sim.Proc, pool *Pool, repair bool) ScrubStats {
	oids := c.ListObjects(pool)
	slots := make([]ScrubStats, len(oids))
	sim.WaitAll(p, sim.Workers(p, "scrub", len(oids), max(c.qsched.MaxDepth(qos.Scrub), 1), func(q *sim.Proc, i int) {
		slots[i].Objects++
		if pool.Red.Kind == Erasure {
			c.scrubEC(q, pool, oids[i], repair, &slots[i])
		} else {
			c.scrubReplicated(q, pool, oids[i], repair, &slots[i])
		}
	})...)
	stats := ScrubStats{}
	for _, s := range slots {
		stats.Objects += s.Objects
		stats.BytesScanned += s.BytesScanned
		stats.Errors = append(stats.Errors, s.Errors...)
		stats.Repaired += s.Repaired
	}
	return stats
}

func (c *Cluster) scrubReplicated(p *sim.Proc, pool *Pool, oid string, repair bool, stats *ScrubStats) {
	pg := c.PGOf(pool, oid)
	acting := c.acting(pool, pg)
	if len(acting) == 0 {
		stats.Errors = append(stats.Errors, ScrubError{Key: store.Key{Pool: pool.ID, OID: oid}, OSD: -1, Detail: "no acting set"})
		return
	}
	key := store.Key{Pool: pool.ID, OID: oid}
	// The authoritative copy is the first current one in acting order: the
	// primary's, unless it missed writes.
	src := slices.IndexFunc(acting, func(o *osd) bool { return c.current(o, key) })
	if src < 0 || c.head[key] == 0 {
		stats.Errors = append(stats.Errors, ScrubError{Key: key, OSD: acting[0].id, Detail: "no current copy in the acting set"})
		return
	}
	auth, _ := acting[src].store.Snapshot(key)
	acting[src].diskRead(p, qos.Scrub, c.cost, len(auth.Data))
	acting[src].host.cpu.Use(p, c.cost.Checksum(len(auth.Data)))
	stats.BytesScanned += int64(len(auth.Data))

	for i, rep := range acting {
		if i == src {
			continue
		}
		got, err := rep.store.Snapshot(key)
		if err != nil {
			stats.Errors = append(stats.Errors, ScrubError{Key: key, OSD: rep.id, Detail: "replica missing"})
			if repair {
				c.repairCopy(p, key, acting[src], rep, auth, stats)
			}
			continue
		}
		stale := !c.current(rep, key)
		rep.diskRead(p, qos.Scrub, c.cost, len(got.Data))
		rep.host.cpu.Use(p, c.cost.Checksum(len(got.Data)))
		stats.BytesScanned += int64(len(got.Data))
		detail := diffObjects(auth, got)
		if stale {
			detail = "stale copy"
		}
		if detail != "" {
			stats.Errors = append(stats.Errors, ScrubError{Key: key, OSD: rep.id, Detail: detail})
			if repair {
				c.repairCopy(p, key, acting[src], rep, auth, stats)
			}
		}
	}
}

func (c *Cluster) repairCopy(p *sim.Proc, key store.Key, src, dst *osd, auth *store.Object, stats *ScrubStats) {
	c.netSend(p, qos.Scrub, dst.host.nicSched, src.host.nicSched, auth.PayloadBytes())
	if c.install(p, dst, key, auth) {
		dst.diskWrite(p, qos.Scrub, c.cost, auth.PayloadBytes())
		stats.Repaired++
	}
}

func (c *Cluster) scrubEC(p *sim.Proc, pool *Pool, oid string, repair bool, stats *ScrubStats) {
	key := store.Key{Pool: pool.ID, OID: oid}
	holders := c.ecHolders(pool, oid)
	codec := c.codecFor(pool)
	k, m := pool.Red.K, pool.Red.M

	shards := make([][]byte, k+m)
	present := 0
	size := 0
	for idx, o := range holders {
		if o == nil {
			continue
		}
		snap, err := o.store.Snapshot(key)
		if err != nil {
			continue
		}
		o.diskRead(p, qos.Scrub, c.cost, len(snap.Data))
		stats.BytesScanned += int64(len(snap.Data))
		shards[idx] = snap.Data
		size = max(size, len(snap.Data))
		present++
	}
	if present < k {
		stats.Errors = append(stats.Errors, ScrubError{Key: key, OSD: -1, Detail: fmt.Sprintf("only %d/%d shards present", present, k)})
		return
	}
	if present < k+m {
		stats.Errors = append(stats.Errors, ScrubError{Key: key, OSD: -1, Detail: "missing shards (degraded; run Recover)"})
		return
	}
	// Pad short shards so Verify sees equal sizes (tail shards may be short
	// after partial writes).
	for i := range shards {
		if len(shards[i]) < size {
			shards[i] = append(append([]byte(nil), shards[i]...), make([]byte, size-len(shards[i]))...)
		}
	}
	// Charge the parity verification to the acting primary.
	if acting := c.acting(pool, c.PGOf(pool, oid)); len(acting) > 0 {
		acting[0].host.cpu.Use(p, c.cost.ECEncode(size*k))
	}
	ok, err := codec.Verify(shards)
	if err != nil || !ok {
		stats.Errors = append(stats.Errors, ScrubError{Key: key, OSD: -1, Detail: "parity mismatch"})
		if repair {
			// Rebuild parity from data shards (data is authoritative, as in
			// Ceph's repair of parity inconsistencies).
			enc, encErr := codec.Encode(shards[:k])
			if encErr != nil {
				return
			}
			for idx := k; idx < k+m; idx++ {
				o := holders[idx]
				if o == nil {
					continue
				}
				if bytes.Equal(enc[idx], shards[idx]) {
					continue
				}
				txn := store.NewTxn().WriteFull(enc[idx]).
					SetXattr(xattrECIdx, putU64(uint64(idx)))
				if lenRaw, lerr := o.store.GetXattr(key, xattrECLen); lerr == nil {
					txn.SetXattr(xattrECLen, lenRaw)
				}
				_ = o.apply(p, key, txn) // rewriting a held parity shard cannot fail
				o.diskWrite(p, qos.Scrub, c.cost, len(enc[idx]))
				stats.Repaired++
			}
		}
	}
}

// diffObjects compares two object copies and describes the first mismatch.
func diffObjects(a, b *store.Object) string {
	if !bytes.Equal(a.Data, b.Data) {
		return "data mismatch"
	}
	if len(a.Xattr) != len(b.Xattr) {
		return "xattr count mismatch"
	}
	for k, v := range a.Xattr {
		if !bytes.Equal(b.Xattr[k], v) {
			return "xattr " + k + " mismatch"
		}
	}
	if len(a.Omap) != len(b.Omap) {
		return "omap count mismatch"
	}
	for k, v := range a.Omap {
		if !bytes.Equal(b.Omap[k], v) {
			return "omap " + k + " mismatch"
		}
	}
	return ""
}

// CorruptForTest flips a byte of one OSD's copy of an object — a bit-rot
// injector for scrub tests and demos.
func (c *Cluster) CorruptForTest(osdID int, key store.Key, offset int64) error {
	o, ok := c.osds[osdID]
	if !ok {
		return fmt.Errorf("rados: unknown osd %d", osdID)
	}
	data, err := o.store.Read(key, offset, 1)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("rados: offset %d beyond object", offset)
	}
	return o.apply(nil, key, store.NewTxn().Write(offset, []byte{data[0] ^ 0xff}))
}
