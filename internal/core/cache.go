package core

import (
	"dedupstore/internal/hitset"
	"dedupstore/internal/metrics"
	"dedupstore/internal/sim"
)

// TieringPolicy decides where each object's bytes should live. It
// generalizes the paper's cache manager (§4.3): per-interval HitSets backed
// by bloom filters track recent accesses, and an object whose access count
// reaches the HitCount threshold is hot — the dedup engine leaves hot
// objects alone ("the hot object is not deduplicated until its state is
// changed", §3.2), and flushed hot objects keep a cached copy in the
// metadata object.
//
// With adaptive redundancy enabled the policy additionally grades objects
// into hot/warm/cold from decayed hit counts and assigns each a target form
// (tiering.FormFor): hot objects stay replicated and undeduplicated, warm
// objects deduplicate into the replicated chunk pool, cold objects into the
// erasure-coded one. Hotness then derives from the temperature bands so the
// flush-skip/keep-cached decisions and the migration targets can never
// disagree.
type TieringPolicy struct {
	tracker  *hitset.Tracker
	adaptive bool // multi-level temperature + target forms (off: boolean §4.3 behavior)

	// The decision counts, one registry counter each.
	skippedHot, keptCached, evictedCold *metrics.Counter

	// tenants attributes objects to the tenant that last touched them, so
	// migrations the policy daemon issues on an object's behalf carry the
	// right identity in their trace spans. Populated only when adaptive
	// tiering is on.
	tenants map[string]string
}

// NewTieringPolicy creates the placement policy, counting its decisions in
// reg; adaptive enables multi-level temperatures and per-object target forms.
func NewTieringPolicy(cfg hitset.Config, adaptive bool, reg *metrics.Registry) *TieringPolicy {
	tp := &TieringPolicy{
		tracker:     hitset.New(cfg),
		adaptive:    adaptive,
		skippedHot:  reg.Counter("cache_skip_flush_hot_total"),
		keptCached:  reg.Counter("cache_keep_cached_total"),
		evictedCold: reg.Counter("cache_evict_cold_total"),
	}
	if adaptive {
		tp.tenants = make(map[string]string)
	}
	return tp
}

// Adaptive reports whether multi-level tiering is enabled.
func (cm *TieringPolicy) Adaptive() bool { return cm.adaptive }

// RecordAccessTenant notes a client read or write of oid and attributes the
// object to tenant (adaptive mode only; the boolean cache manager has no
// migration spans to attribute).
func (cm *TieringPolicy) RecordAccessTenant(now sim.Time, oid, tenant string) {
	cm.tracker.Record(now, oid)
	if cm.adaptive && tenant != "" {
		cm.tenants[oid] = tenant
	}
}

// TenantOf returns the tenant last seen touching oid ("" if unknown).
func (cm *TieringPolicy) TenantOf(oid string) string { return cm.tenants[oid] }

// Hot reports whether oid is currently hot. In adaptive mode hotness is the
// top temperature band, so it always agrees with the migration target.
func (cm *TieringPolicy) Hot(now sim.Time, oid string) bool {
	return cm.Temp(now, oid) == hitset.TempHot
}

// Temp returns oid's temperature band (adaptive mode; in boolean mode hot
// maps to TempHot and everything else to TempCold).
func (cm *TieringPolicy) Temp(now sim.Time, oid string) hitset.Temperature {
	if cm.adaptive {
		return cm.tracker.Temp(now, oid)
	}
	if cm.tracker.Hot(now, oid) {
		return hitset.TempHot
	}
	return hitset.TempCold
}

// SkipFlush reports whether the dedup engine should defer deduplicating oid
// this cycle. Hot objects are skipped; they remain on the dirty list.
func (cm *TieringPolicy) SkipFlush(now sim.Time, oid string) bool {
	if cm.Hot(now, oid) {
		cm.skippedHot.Inc()
		return true
	}
	return false
}

// KeepCachedAfterFlush reports whether the chunks a flush is binding should
// stay cached in the metadata object (hot) or be evicted (cold): one decision,
// and one count, per object per flush pass.
func (cm *TieringPolicy) KeepCachedAfterFlush(now sim.Time, oid string) bool {
	if cm.Hot(now, oid) {
		cm.keptCached.Inc()
		return true
	}
	cm.evictedCold.Inc()
	return false
}

// Stats reports the policy's decision counters.
func (cm *TieringPolicy) Stats() (skippedHot, keptCached, evictedCold int64) {
	return cm.skippedHot.Value(), cm.keptCached.Value(), cm.evictedCold.Value()
}
