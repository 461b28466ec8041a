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
// Together the two passes make the invariant reference table ↔ chunkmap hold
// in both directions after any crash the chaos harness can produce.

// AuditStats reports one audit pass.
type AuditStats struct {
	MetadataObjects int64
	BindingsChecked int64
	IntentsPromoted int64 // binding present, chunk held an intent → committed
	RefsRepaired    int64 // binding present, chunk had no trace → ref re-added
	LostChunks      int64 // binding points at a missing chunk (data loss)
	// CountsFixed is always 0: a chunk's reference table is its count, so
	// there is no separate count to fix. It stays only because the
	// benchmark module (bench/run.go) sums it.
	CountsFixed int64
}

// Clean reports whether the audit found nothing to repair or report.
func (a AuditStats) Clean() bool {
	return a.IntentsPromoted == 0 && a.RefsRepaired == 0 && a.LostChunks == 0
}

// auditBindingFn repairs one chunkmap→chunk binding under the chunk's PG
// lock: promote the intent, or re-add the reference.
func auditBindingFn(ref Ref, promoted, repaired *bool) rados.MutateFn {
	return func(v rados.View) (*store.Txn, error) {
		*promoted, *repaired = false, false
		if !v.Exists() {
			return nil, rados.ErrNotFound
		}
		_, refErr := v.OmapGet(ref.Key())
		_, intErr := v.OmapGet(ref.IntentKey())
		hasRef, hasIntent := refErr == nil, intErr == nil
		if hasRef && !hasIntent {
			return nil, nil // healthy binding
		}
		// An intent means a crash between bind and commit: finish phase 3 on
		// the flush's behalf (idempotent with a late commitIntentFn). With
		// neither reference nor intent left, the binding is still
		// authoritative: re-add the committed reference.
		*promoted, *repaired = hasIntent, !hasIntent
		txn := store.NewTxn()
		if hasIntent {
			txn.OmapRm(ref.IntentKey())
		}
		if !hasRef {
			txn.OmapSet(ref.Key(), nil)
		}
		return txn, nil
	}
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
		reg.Counter("dedup_audit_lost_chunks_total").Add(stats.LostChunks)
	}()
	sp := s.cluster.Trace().StartLabel(p, spanAudit).SetClass(qos.Scrub.Label())
	defer sp.Finish(p)
	gw := s.hostGWClass(anyHost(s), qos.Scrub)
	err := s.eachObject(func(oid string) error { return s.auditObject(p, gw, oid, &stats) })
	return stats, err
}

// auditObject reconciles every clean binding of metadata object oid with its
// chunk's reference table.
func (s *Store) auditObject(p *sim.Proc, gw *rados.Gateway, oid string, stats *AuditStats) error {
	stats.MetadataObjects++
	cm, err := s.readChunkMap(p, gw, oid)
	if rados.IsUnavailable(err) {
		return err
	}
	if err != nil {
		// Deleted concurrently or no map yet; corrupt maps are scrub's to
		// report. Nothing to reconcile here either way.
		return nil
	}
	for _, e := range cm.Entries {
		if e.ChunkID == "" || e.Dirty {
			// Dirty slots are in flux — the next flush cycle re-binds
			// them; auditing mid-flight would race the engine.
			continue
		}
		stats.BindingsChecked++
		ref := s.refAt(oid, e.Start)
		var promoted, repaired bool
		err := retryUnavailable(p, func() error {
			return gw.Mutate(p, s.chunkPoolFor(e.Cold), e.ChunkID, auditBindingFn(ref, &promoted, &repaired))
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
			return err
		}
		switch {
		case promoted:
			stats.IntentsPromoted++
		case repaired:
			stats.RefsRepaired++
		}
	}
	return nil
}
