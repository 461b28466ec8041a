// Package tiering holds the pure decision logic of the adaptive-redundancy
// subsystem: the per-object target forms (which redundancy an object's
// temperature earns it) and the migration state machine that turns an
// observed chunk-map state plus a target form into the next action. The
// package is deliberately I/O-free — core executes the actions through the
// two-phase reference protocol; this layer only decides, so the state
// machine is exhaustively table-testable.
//
// The placement policy follows FASTEN (PAPERS.md, arXiv 2312.08309) — pick
// replication vs. deduplication per object by popularity — combined with the
// online-EC observation (arXiv 1709.05365) that cold data belongs on erasure
// coding while hot data must not:
//
//	hot  → replicated, undeduplicated (bytes live in the metadata pool)
//	warm → deduplicated, chunks left in the pool they are in
//	cold → erasure-coded + deduplicated (chunks in the EC chunk pool)
package tiering

import "dedupstore/internal/hitset"

// Form is the target redundancy/dedup shape of one object.
type Form int

const (
	// FormCached: replicated and undeduplicated — the object's bytes live in
	// the (replicated) metadata pool; chunk-map slots hold no chunk binding.
	FormCached Form = iota
	// FormDedup: deduplicated, no cached copy — slots bind chunks in either
	// pool; a flush binds new ones in the replicated (warm) chunk pool.
	FormDedup
	// FormDedupEC: erasure-coded and deduplicated — slots bind chunks in the
	// EC (cold) chunk pool, no cached copy.
	FormDedupEC
)

var formNames = [...]string{"cached", "dedup", "dedup-ec"}

func (f Form) String() string {
	if f >= FormCached && f <= FormDedupEC {
		return formNames[f]
	}
	return "invalid"
}

// FormFor maps an object temperature to its target form.
func FormFor(t hitset.Temperature) Form {
	switch t {
	case hitset.TempHot:
		return FormCached
	case hitset.TempWarm:
		return FormDedup
	default:
		return FormDedupEC
	}
}

// ObjectState summarizes what one chunk map currently looks like, as far as
// tiering cares: which storage each slot's bytes occupy.
type ObjectState struct {
	// DirtySlots counts slots awaiting a flush (data cached, not yet
	// deduplicated, or re-written since). Migration never touches them —
	// the dedup engine owns dirty slots.
	DirtySlots int
	// CachedOnly counts clean slots whose bytes live solely in the metadata
	// pool (no chunk binding) — the hot, undeduplicated form.
	CachedOnly int
	// CachedBound counts clean slots that bind a chunk and keep a cached
	// copy too (flushed while hot, KeepCachedAfterFlush).
	CachedBound int
	// WarmChunks counts clean, uncached slots bound to the replicated chunk
	// pool.
	WarmChunks int
	// ColdChunks counts clean, uncached slots bound to the EC chunk pool.
	ColdChunks int
}

// Action is the next migration step for one object.
type Action int

const (
	// ActNone: the object already matches its target form, or is in a state
	// (dirty, empty) the policy must leave to the dedup engine.
	ActNone Action = iota
	// ActRecache promotes to hot: chunk bytes are read back into the
	// metadata object, the bindings are released, and the chunks
	// de-referenced. The object ends replicated and undeduplicated.
	ActRecache
	// ActDemoteCold moves warm (replicated) chunks into the EC chunk pool
	// via the two-phase reference protocol.
	ActDemoteCold
	// ActRededup demotes a hot object: its cached-only slots are marked
	// dirty so the dedup engine re-deduplicates them (landing them in the
	// pool its temperature then selects), and cached-bound slots drop their
	// cached copy.
	ActRededup
	// ActEvict drops the cached copies of cached-bound slots (the object is
	// already deduplicated; only the hot-time cache remains).
	ActEvict
)

var actionNames = [...]string{"none", "recache", "demote-cold", "rededup", "evict"}

func (a Action) String() string {
	if a >= ActNone && a <= ActEvict {
		return actionNames[a]
	}
	return "invalid"
}

// Decide returns the next action that moves an object with state st toward
// target. One action at a time: the policy daemon re-walks objects every
// pass, so multi-step transitions (e.g. hot → cold: rededup, then the flush
// lands the chunks cold) converge across passes without the decision layer
// ever needing to sequence I/O.
func Decide(target Form, st ObjectState) Action {
	if st.DirtySlots > 0 {
		// The dedup engine owns dirty slots; migrating around an in-flight
		// flush would race its phase-2 bind. The engine's pool selection is
		// temperature-aware, so the flush itself advances toward the target.
		return ActNone
	}
	switch target {
	case FormCached:
		if st.WarmChunks > 0 || st.ColdChunks > 0 || st.CachedBound > 0 {
			return ActRecache
		}
	case FormDedup, FormDedupEC:
		if st.CachedOnly > 0 {
			return ActRededup
		}
		// A warm object's chunks stay in the pool they are in: a read
		// moves none (DESIGN.md §11).
		if target == FormDedupEC && st.WarmChunks > 0 {
			return ActDemoteCold
		}
		if st.CachedBound > 0 {
			return ActEvict
		}
	}
	return ActNone
}
