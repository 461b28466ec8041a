package core

import (
	"errors"
	"slices"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// Dedup-aware scrub: the dedup layer's invariants, checked in one read-only
// pass. The chunk pass reads every chunk and its reference table, the
// metadata pass every chunk map, and the two are joined on the host per (pool
// the entry's Cold bit selects, chunk ID, reference). Each ScrubKind names one
// invariant, and every kind fails Clean(): no crash the protocol survives
// (DESIGN.md §6.3) leaves one. Intents, UnboundRefs and Unreferenced are
// states the protocol leaves open (a flush in flight, a crash leftover, false-
// positive mode's lazy release), so they are counted, not issues, and the
// caller judges them. A dirty slot naming a chunk is a binding: its reference
// is held until the re-flush releases it.

// ScrubKind names the invariant a ScrubIssue breaks.
type ScrubKind string

const (
	KindBitRot       ScrubKind = "bit-rot"              // a chunk's content hashes to its own ID
	KindBadRefKey    ScrubKind = "bad-ref-key"          // a "ref." key parses back to the Ref that wrote it
	KindBadIntentKey ScrubKind = "bad-intent-key"       // an "int." key parses back likewise
	KindUnknownKey   ScrubKind = "unknown-key"          // a reference table holds only references and intents
	KindCorruptMap   ScrubKind = "corrupt-map"          // a chunk map parses
	KindMissingMap   ScrubKind = "missing-map"          // a live metadata object has a chunk map
	KindLostSlot     ScrubKind = "lost-slot"            // a slot names a chunk or holds cached data
	KindMissingChunk ScrubKind = "missing-chunk"        // a clean, uncached binding's chunk is in its pool
	KindUnrefBinding ScrubKind = "unreferenced-binding" // a clean binding's chunk holds its reference or intent
)

// ScrubIssue is one broken invariant, at a chunk or a metadata object.
type ScrubIssue struct {
	OID  string
	Kind ScrubKind
}

// ScrubReport summarizes a dedup scrub pass.
type ScrubReport struct {
	MetadataObjects int
	ChunkObjects    int
	BytesVerified   int64
	Issues          []ScrubIssue

	// Outstanding work, never an issue.
	Intents, UnboundRefs, Unreferenced int
}

// Clean reports whether the scrub found no inconsistencies.
func (r ScrubReport) Clean() bool { return len(r.Issues) == 0 }

// chunkSite names one chunk object of one pool.
type chunkSite struct {
	pool  *rados.Pool
	chunk string
}

// refSite keys the join: one reference slot of one chunk.
type refSite struct {
	chunkSite
	ref Ref
}

const heldRef, heldIntent, bound uint8 = 1, 2, 4

// scrubJoin is a pass's host-side join: the chunks the chunk pass listed, and
// per reference slot what the chunk's table held and whether a binding names
// it. The listed set is keyed by chunk alone, so a chunk costs one small entry
// whatever its reference count.
type scrubJoin struct {
	listed map[chunkSite]struct{}
	sites  map[refSite]uint8
}

func newScrubJoin() scrubJoin {
	return scrubJoin{listed: map[chunkSite]struct{}{}, sites: map[refSite]uint8{}}
}

// Scrub verifies the dedup layer's invariants. It is read-only; use the
// substrate's Cluster.Scrub(repair=true) to fix replica divergence, the audit
// to repair bindings, and GC to reclaim stale references.
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
	j := newScrubJoin()

	// 1. Chunk objects, in the warm pool and, with tiering on, the cold one.
	if err := s.eachChunk(func(cpool *rados.Pool, chunkOID string) error {
		return s.scrubChunk(p, gw, cpool, chunkOID, j, &rep)
	}); err != nil {
		return rep, err
	}
	// 2. Metadata objects: every flushed entry must point at a live chunk in
	// the pool its Cold bit selects, and hold its reference there.
	if err := s.eachObject(func(oid string) error { return s.scrubObject(p, gw, oid, j, &rep) }); err != nil {
		return rep, err
	}
	for _, held := range j.sites {
		if held&(heldRef|bound) == heldRef {
			rep.UnboundRefs++
		}
	}
	return rep, nil
}

// scrubObject checks the chunk map of metadata object oid and joins each of
// its bindings with the reference tables the chunk pass recorded in j.
func (s *Store) scrubObject(p *sim.Proc, gw *rados.Gateway, oid string, j scrubJoin, rep *ScrubReport) error {
	rep.MetadataObjects++
	cm, err := s.readChunkMap(p, gw, oid)
	switch {
	case rados.IsUnavailable(err):
		return err
	case errors.Is(err, ErrCorruptMap):
		rep.Issues = append(rep.Issues, ScrubIssue{oid, KindCorruptMap})
		return nil
	case errors.Is(err, ErrNotFound):
		// Deleted since the listing, or live with no map.
		live, err := retryGet(p, func() (bool, error) { return gw.Exists(p, s.meta, oid) })
		if err != nil {
			return err
		}
		if live {
			rep.Issues = append(rep.Issues, ScrubIssue{oid, KindMissingMap})
		}
		return nil
	case err != nil:
		rep.Issues = append(rep.Issues, ScrubIssue{oid, KindMissingMap})
		return nil
	}
	for _, e := range cm.Entries {
		if e.ChunkID == "" {
			if !e.Cached {
				rep.Issues = append(rep.Issues, ScrubIssue{oid, KindLostSlot})
			}
			continue
		}
		if !e.Cached && !e.Dirty {
			ok, err := retryGet(p, func() (bool, error) { return gw.Exists(p, s.chunkPoolFor(e.Cold), e.ChunkID) })
			if err != nil {
				return err
			}
			if !ok {
				rep.Issues = append(rep.Issues, ScrubIssue{oid, KindMissingChunk})
				continue
			}
		}
		if err := s.scrubBinding(p, gw, j, oid, e, rep); err != nil {
			return err
		}
	}
	return nil
}

// scrubBinding joins binding e of oid with its chunk's reference table. A
// clean binding whose listed chunk held neither its reference nor its intent
// is re-read, chunk then map, before it counts: a pass beside live writers may
// read the chunk before a flush pins it, and a quiet store never disagrees.
func (s *Store) scrubBinding(p *sim.Proc, gw *rados.Gateway, j scrubJoin, oid string, e Entry, rep *ScrubReport) error {
	site := refSite{chunkSite{s.chunkPoolFor(e.Cold), e.ChunkID}, s.refAt(oid, e.Start)}
	held := j.sites[site]
	j.sites[site] = held | bound
	if _, listed := j.listed[site.chunkSite]; e.Dirty || held&(heldRef|heldIntent) != 0 || !listed {
		return nil
	}
	keys, err := retryGet(p, func() ([]string, error) { return gw.OmapList(p, site.pool, site.chunk, 0) })
	if errors.Is(err, ErrNotFound) || err == nil && (slices.Contains(keys, site.ref.Key()) || slices.Contains(keys, site.ref.IntentKey())) {
		return nil // held after all, or gone since: the existence check's to judge
	}
	if err != nil {
		return err
	}
	cm, err := s.readChunkMap(p, gw, oid)
	if err == nil && slices.Contains(cm.Entries, e) {
		rep.Issues = append(rep.Issues, ScrubIssue{oid, KindUnrefBinding})
	}
	if rados.IsUnavailable(err) {
		return err
	}
	return nil
}

// scrubChunk verifies one chunk object of cpool and records its reference
// table in j.
//
// Every chunk is read on every pass and its bytes are named through the name
// memo (names.go) with the chunk's own name as the guess. A chunk the host
// named when it put it is read as the very array the memo keeps, so the
// verdict is that identity, with no CRC-32C: a stored payload never changes
// in place, and rot gives the rotten copy a new array, which is compared byte
// for byte and, differing, named by SHA-256, as are any other bytes. The
// verdict is exact either way, since equal bytes have equal SHA-256.
func (s *Store) scrubChunk(p *sim.Proc, gw *rados.Gateway, cpool *rados.Pool, chunkOID string, j scrubJoin, rep *ScrubReport) error {
	rep.ChunkObjects++
	// Borrowed: the bytes are only named, never kept.
	data, err := retryGet(p, func() ([]byte, error) { return gw.ReadBorrowed(p, cpool, chunkOID, 0, -1) })
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil // deleted concurrently
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
		rep.Issues = append(rep.Issues, ScrubIssue{chunkOID, KindBitRot})
	}
	t, err := listChunkRefs(p, gw, cpool, chunkOID)
	if errors.Is(err, ErrNotFound) {
		return nil // deleted concurrently
	}
	if err != nil {
		return err
	}
	at := chunkSite{cpool, chunkOID}
	j.listed[at] = struct{}{}
	for _, r := range t.refs {
		j.sites[refSite{at, r.ref}] |= heldRef
	}
	for _, r := range t.intents {
		j.sites[refSite{at, r.ref}] |= heldIntent
	}
	rep.Intents += len(t.intents)
	// Every key must parse back to the Ref that wrote it: no flush writes one
	// that does not, and no binding can name it.
	for _, k := range t.bad {
		if isRefKey(k) {
			rep.Issues = append(rep.Issues, ScrubIssue{chunkOID, KindBadRefKey})
		} else {
			rep.Issues = append(rep.Issues, ScrubIssue{chunkOID, KindBadIntentKey})
			rep.Intents++
		}
	}
	for range t.unknown {
		rep.Issues = append(rep.Issues, ScrubIssue{chunkOID, KindUnknownKey})
	}
	if len(t.refs)+len(t.intents)+len(t.bad) == 0 {
		rep.Unreferenced++
	}
	return nil
}
