package core

import (
	"dedupstore/internal/chunker"
	"dedupstore/internal/rados"
	"dedupstore/internal/store"
)

// Local-vs-global deduplication accounting (§2.2, Fig. 3, Table 1). Local
// deduplication runs independently per OSD (a per-node block-dedup solution
// such as VDO/Permabit): it can only collapse duplicates that happen to land
// on the same device, so its ratio collapses as the cluster grows. Global
// deduplication deduplicates across the whole cluster. These functions
// analyze an undeduplicated pool's contents under both schemes.

// RatioReport is the outcome of a dedup-ratio analysis.
type RatioReport struct {
	TotalBytes  int64
	UniqueBytes int64
}

// Ratio returns the fraction of bytes removed by deduplication (the paper's
// "deduplication ratio"), in percent.
func (r RatioReport) Ratio() float64 {
	if r.TotalBytes == 0 {
		return 0
	}
	return 100 * float64(r.TotalBytes-r.UniqueBytes) / float64(r.TotalBytes)
}

// GlobalDedupAnalysis computes the cluster-wide dedup ratio of a replicated
// pool's logical contents (each object counted once, replication excluded,
// as the paper's Table 2 does).
func GlobalDedupAnalysis(c *rados.Cluster, pool *rados.Pool, chunkSize int64) RatioReport {
	chk := chunker.NewFixed(chunkSize)
	seen := make(map[string]bool)
	var rep RatioReport
	for _, oid := range c.ListObjects(pool) {
		data, ok := readFromAnyHolder(c, pool, oid)
		if !ok {
			continue
		}
		rep.tally(chk, seen, data)
	}
	return rep
}

// tally chunks data and adds it to the report, counting as unique the
// chunks whose fingerprint is not yet in seen (the scope of one dedup
// domain: the cluster, or one OSD).
func (r *RatioReport) tally(chk chunker.Fixed, seen map[string]bool, data []byte) {
	for _, ch := range chk.Split(0, data) {
		r.TotalBytes += int64(len(ch.Data))
		id := FingerprintID(ch.Data)
		if !seen[id] {
			seen[id] = true
			r.UniqueBytes += int64(len(ch.Data))
		}
	}
}

// LocalDedupAnalysis computes the aggregate ratio achievable when each OSD
// deduplicates only its own contents. It scans every OSD's physical objects
// for the pool: replicas of one object live on different OSDs (by CRUSH
// failure-domain separation), so they are never co-located duplicates.
func LocalDedupAnalysis(c *rados.Cluster, pool *rados.Pool, chunkSize int64) RatioReport {
	chk := chunker.NewFixed(chunkSize)
	var rep RatioReport
	for _, id := range c.OSDs() {
		st, ok := c.OSDStore(id)
		if !ok {
			continue
		}
		seen := make(map[string]bool) // per-OSD fingerprint scope
		for _, key := range st.Keys() {
			if key.Pool != pool.ID {
				continue
			}
			data, err := st.Read(key, 0, -1)
			if err != nil {
				continue
			}
			rep.tally(chk, seen, data)
		}
	}
	return rep
}

func readFromAnyHolder(c *rados.Cluster, pool *rados.Pool, oid string) ([]byte, bool) {
	for _, id := range c.OSDs() {
		st, ok := c.OSDStore(id)
		if !ok {
			continue
		}
		data, err := st.Read(storeKey(pool, oid), 0, -1)
		if err == nil {
			return data, true
		}
	}
	return nil, false
}

func storeKey(pool *rados.Pool, oid string) store.Key {
	return store.Key{Pool: pool.ID, OID: oid}
}
