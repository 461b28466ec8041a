package core

import (
	"errors"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// Dedup-aware scrub: on top of the substrate's replica/parity scrub, the
// dedup layer can verify its own invariants — a chunk object's content must
// hash to its own ID (double hashing makes bit-rot self-evident), every
// chunk-map entry must point at an existing chunk, and every key in a
// chunk's reference table must be a reference or an intent that parses.

// ScrubIssue describes one dedup-level inconsistency.
type ScrubIssue struct {
	OID    string // object (metadata or chunk) involved
	Detail string
}

// ScrubReport summarizes a dedup scrub pass.
type ScrubReport struct {
	MetadataObjects int
	ChunkObjects    int
	BytesVerified   int64
	Issues          []ScrubIssue
}

// Clean reports whether the scrub found no inconsistencies.
func (r ScrubReport) Clean() bool { return len(r.Issues) == 0 }

// Scrub verifies the dedup layer's invariants. It is read-only; use the
// substrate's Cluster.Scrub(repair=true) to fix replica divergence, and GC
// to reclaim stale references.
func (s *Store) Scrub(p *sim.Proc) (ScrubReport, error) {
	var rep ScrubReport
	reg := s.cluster.Metrics()
	defer func() {
		reg.Counter("dedup_scrub_passes_total").Inc()
		reg.Counter("dedup_scrub_chunks_total").Add(int64(rep.ChunkObjects))
		reg.Counter("dedup_scrub_bytes_verified_total").Add(rep.BytesVerified)
		reg.Counter("dedup_scrub_issues_total").Add(int64(len(rep.Issues)))
	}()
	sp := s.cluster.Trace().StartLabel(p, spanScrub).SetClass(qos.Scrub.Label())
	defer sp.Finish(p)
	gw := s.hostGWClass(anyHost(s), qos.Scrub)

	// 1. Chunk objects: content must hash to the object ID (the double-
	// hashing invariant) and the reference table must parse.
	// With tiering on, both the warm and the cold pool hold chunk objects
	// and each is verified against the same invariants.
	for _, cpool := range s.chunkPools() {
		if err := s.scrubChunkPool(p, gw, cpool, &rep); err != nil {
			return rep, err
		}
	}

	// 2. Metadata objects: every flushed entry must point at a live chunk in
	// the pool its Cold bit selects.
	for _, oid := range s.cluster.ListObjects(s.meta) {
		if IsSystemObject(oid) {
			continue
		}
		rep.MetadataObjects++
		cm, err := s.readChunkMap(p, gw, oid)
		switch {
		case rados.IsUnavailable(err):
			return rep, err
		case errors.Is(err, ErrCorruptMap):
			rep.Issues = append(rep.Issues, ScrubIssue{OID: oid, Detail: "corrupt chunk map"})
			continue
		case errors.Is(err, ErrNotFound):
			// Deleted since the listing, or live with no map.
			live, err := retryGet(p, func() (bool, error) { return gw.Exists(p, s.meta, oid) })
			if err != nil {
				return rep, err
			}
			if live {
				rep.Issues = append(rep.Issues, ScrubIssue{OID: oid, Detail: "missing chunk map"})
			}
			continue
		case err != nil:
			rep.Issues = append(rep.Issues, ScrubIssue{OID: oid, Detail: "missing chunk map"})
			continue
		}
		for _, e := range cm.Entries {
			if e.ChunkID == "" {
				if !e.Cached {
					rep.Issues = append(rep.Issues, ScrubIssue{OID: oid, Detail: "slot has neither chunk nor cached data"})
				}
				continue
			}
			if e.Cached || e.Dirty {
				continue // data still (also) in the metadata object
			}
			ok, err := retryGet(p, func() (bool, error) { return gw.Exists(p, s.chunkPoolFor(e.Cold), e.ChunkID) })
			if err != nil {
				return rep, err
			}
			if !ok {
				rep.Issues = append(rep.Issues, ScrubIssue{OID: oid, Detail: "chunk map points at missing chunk " + e.ChunkID})
			}
		}
	}
	return rep, nil
}

// scrubChunkPool verifies the chunk objects of one chunk pool.
//
// Every chunk is read on every pass and its bytes are named through the name
// memo (names.go) with the chunk's own name as the guess. A chunk the host
// named when it put it is read as the very array the memo keeps, so the
// verdict is that identity, with no CRC-32C: a stored payload never changes
// in place, and rot gives the rotten copy a new array, which is compared byte
// for byte and, differing, named by SHA-256, as are any other bytes. The
// verdict is exact either way, since equal bytes have equal SHA-256.
func (s *Store) scrubChunkPool(p *sim.Proc, gw *rados.Gateway, cpool *rados.Pool, rep *ScrubReport) error {
	for _, chunkOID := range s.cluster.ListObjects(cpool) {
		rep.ChunkObjects++
		// Borrowed: the bytes are only named, never kept.
		data, err := retryGet(p, func() ([]byte, error) { return gw.ReadBorrowed(p, cpool, chunkOID, 0, -1) })
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // deleted concurrently
			}
			return err
		}
		host, herr := s.cluster.PrimaryHost(cpool, chunkOID)
		if herr == nil {
			if err := s.cluster.UseHostCPU(p, host, s.cluster.Cost().Hash(len(data))); err != nil {
				return err
			}
		}
		rep.BytesVerified += int64(len(data))
		if s.nameAs(data, chunkOID) != chunkOID {
			rep.Issues = append(rep.Issues, ScrubIssue{OID: chunkOID, Detail: "content does not match fingerprint (bit rot)"})
		}
		keys, err := retryGet(p, func() ([]string, error) { return gw.OmapList(p, cpool, chunkOID, 0) })
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		// Every key must parse back to the Ref that wrote it (an unparseable
		// key is invisible to GC and would pin the chunk forever).
		t := partitionRefKeys(keys)
		for _, k := range t.refs {
			if _, ok := parseRefKey(k); !ok {
				rep.Issues = append(rep.Issues, ScrubIssue{OID: chunkOID, Detail: "unparseable reference key " + k})
			}
		}
		for _, k := range t.intents {
			if _, ok := parseIntentKey(k); !ok {
				rep.Issues = append(rep.Issues, ScrubIssue{OID: chunkOID, Detail: "unparseable intent key " + k})
			}
		}
		for _, k := range t.unknown {
			rep.Issues = append(rep.Issues, ScrubIssue{OID: chunkOID, Detail: "unknown omap key " + k})
		}
	}
	return nil
}
