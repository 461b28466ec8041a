package rados

import (
	"sort"

	"dedupstore/internal/store"
)

// PoolStats summarizes one pool's contents and footprint.
type PoolStats struct {
	Name string
	// Objects is the number of distinct objects in the pool.
	Objects int
	// LogicalBytes counts each object's data once (no redundancy).
	LogicalBytes int64
	// StoredPhysical is the raw data footprint across all replicas/shards,
	// after any node-local compression model.
	StoredPhysical int64
	// StoredMetadata is the xattr/omap/per-object overhead footprint across
	// all replicas/shards.
	StoredMetadata int64
}

// StoredTotal is the complete raw footprint of the pool.
func (ps PoolStats) StoredTotal() int64 { return ps.StoredPhysical + ps.StoredMetadata }

// PoolStats computes statistics for one pool by scanning all OSD stores.
func (c *Cluster) PoolStats(pool *Pool) PoolStats {
	ps := PoolStats{Name: pool.Name}
	logical := make(map[string]int64)
	for _, id := range c.cmap.OSDs() {
		o := c.osds[id]
		u := o.store.PoolUsage(pool.ID)
		ps.StoredPhysical += u.Physical
		ps.StoredMetadata += u.Metadata
		for _, key := range o.store.Keys() {
			if key.Pool != pool.ID {
				continue
			}
			if _, seen := logical[key.OID]; seen {
				continue
			}
			if pool.Red.Kind == Erasure {
				logical[key.OID] = int64(getU64(mustXattr(o.store, key, xattrECLen)))
			} else if n, err := o.store.Size(key); err == nil {
				logical[key.OID] = n
			}
		}
	}
	ps.Objects = len(logical)
	for _, n := range logical {
		ps.LogicalBytes += n
	}
	return ps
}

// ListObjects returns the IDs of the pool's live objects — those with a head
// — sorted. A stale copy, such as one a dead OSD holds of an object deleted
// while it was down, lists nothing.
func (c *Cluster) ListObjects(pool *Pool) []string {
	var out []string
	for key := range c.head {
		if key.Pool == pool.ID {
			out = append(out, key.OID)
		}
	}
	sort.Strings(out)
	return out
}

// TotalUsage aggregates raw usage across every OSD store.
func (c *Cluster) TotalUsage() store.Usage {
	var total store.Usage
	for _, id := range c.cmap.OSDs() {
		u := c.osds[id].store.Usage()
		total.Objects += u.Objects
		total.Data += u.Data
		total.Physical += u.Physical
		total.Metadata += u.Metadata
	}
	return total
}
