package core

import (
	"errors"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Cross-pool audit: the forward direction of reference reconciliation. GC
// walks chunk → chunkmap (a recorded reference whose binding is gone is
// stale); the audit walks chunkmap → chunk (a binding whose reference was
// never committed — a crash between phase 2 and phase 3 of the flush
// protocol — is repaired by promoting the surviving intent, or re-adding
// the committed reference outright). A binding whose chunk object does not
// exist at all is unrecoverable data loss and is reported, not repaired.
//
// Together the two passes make the invariant count ↔ omap ↔ chunkmap hold
// in both directions after any crash the chaos harness can produce.

// AuditStats reports one audit pass.
type AuditStats struct {
	MetadataObjects int64
	BindingsChecked int64
	IntentsPromoted int64 // binding present, chunk held an intent → committed
	RefsRepaired    int64 // binding present, chunk had no trace → ref re-added
	CountsFixed     int64 // refcount xattr rewritten to match the omap
	LostChunks      int64 // binding points at a missing chunk (data loss)
}

// Clean reports whether the audit found nothing to repair or report.
func (a AuditStats) Clean() bool {
	return a.IntentsPromoted == 0 && a.RefsRepaired == 0 &&
		a.CountsFixed == 0 && a.LostChunks == 0
}

// auditBindingFn repairs one chunkmap→chunk binding under the chunk's PG
// lock: promote the intent (or re-add the reference) and reconcile the
// committed count with the omap.
func auditBindingFn(ref Ref, promoted, repaired, fixed *bool) rados.MutateFn {
	return func(v rados.View) (*store.Txn, error) {
		*promoted, *repaired, *fixed = false, false, false
		if !v.Exists() {
			return nil, rados.ErrNotFound
		}
		_, refErr := v.OmapGet(ref.Key())
		_, intErr := v.OmapGet(ref.IntentKey())
		hasRef, hasIntent := refErr == nil, intErr == nil
		t, err := chunkRefs(v)
		if err != nil {
			return nil, err
		}
		count, gen, _ := readRCLenient(v)
		txn := store.NewTxn()
		want := len(t.refs)
		switch {
		case hasRef && !hasIntent:
			// Healthy binding; only rewrite the xattr if the count drifted.
			if uint64(want) == count {
				return nil, nil
			}
			*fixed = true
		case hasIntent:
			// Crash between bind and commit: finish phase 3 on the flush's
			// behalf (idempotent with a late commitIntentFn).
			txn.OmapRm(ref.IntentKey())
			if !hasRef {
				txn.OmapSet(ref.Key(), nil)
				want++
			}
			*promoted = true
		default:
			// Neither reference nor intent survived, yet the binding is
			// authoritative: re-add the committed reference.
			txn.OmapSet(ref.Key(), nil)
			want++
			*repaired = true
		}
		if uint64(want) != count && !*promoted && !*repaired {
			*fixed = true
		}
		txn.SetXattr(XattrRefCount, encodeRC(uint64(want), gen+1))
		return txn, nil
	}
}

// readRCLenient decodes the refcount xattr, treating missing or corrupt
// state as zero — used only by repair paths that rewrite the xattr anyway.
func readRCLenient(v rados.View) (count, gen uint64, ok bool) {
	raw, err := v.GetXattr(XattrRefCount)
	if err != nil {
		return 0, 0, false
	}
	return decodeRC(raw)
}

// Audit runs one chunkmap→chunk reconciliation pass over the metadata pool.
// Safe to run concurrently with foreground I/O: repairs happen under the
// chunk's PG lock and are idempotent against the flush protocol.
func (s *Store) Audit(p *sim.Proc) (AuditStats, error) {
	var stats AuditStats
	reg := s.cluster.Metrics()
	defer func() {
		reg.Counter("dedup_audit_passes_total").Inc()
		reg.Counter("dedup_audit_bindings_checked_total").Add(stats.BindingsChecked)
		reg.Counter("dedup_audit_intents_promoted_total").Add(stats.IntentsPromoted)
		reg.Counter("dedup_audit_refs_repaired_total").Add(stats.RefsRepaired)
		reg.Counter("dedup_audit_counts_fixed_total").Add(stats.CountsFixed)
		reg.Counter("dedup_audit_lost_chunks_total").Add(stats.LostChunks)
	}()
	sp := s.cluster.Trace().Start(p, "dedup.audit").SetClass(qos.Scrub.String())
	defer sp.Finish(p)
	gw := s.hostGWClass(anyHost(s), qos.Scrub)
	for _, oid := range s.cluster.ListObjects(s.meta) {
		if IsSystemObject(oid) {
			continue
		}
		stats.MetadataObjects++
		cm, err := s.readChunkMap(p, gw, oid)
		if rados.IsUnavailable(err) {
			return stats, err
		}
		if err != nil {
			// Deleted concurrently or no map yet; corrupt maps are scrub's to
			// report. Nothing to reconcile here either way.
			continue
		}
		for _, e := range cm.Entries {
			if e.ChunkID == "" || e.Dirty {
				// Dirty slots are in flux — the next flush cycle re-binds
				// them; auditing mid-flight would race the engine.
				continue
			}
			stats.BindingsChecked++
			ref := s.refAt(oid, e.Start)
			var promoted, repaired, fixed bool
			err := retryUnavailable(p, func() error {
				return gw.Mutate(p, s.chunkPoolFor(e.Cold), e.ChunkID, auditBindingFn(ref, &promoted, &repaired, &fixed))
			})
			if errors.Is(err, ErrNotFound) {
				if !e.Cached {
					// The data exists nowhere: binding names a chunk that is
					// gone and the metadata object holds no cached copy.
					stats.LostChunks++
				}
				continue
			}
			if err != nil {
				return stats, err
			}
			switch {
			case promoted:
				stats.IntentsPromoted++
			case repaired:
				stats.RefsRepaired++
			case fixed:
				stats.CountsFixed++
			}
		}
	}
	return stats, nil
}
