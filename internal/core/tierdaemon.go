package core

import (
	"errors"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/tiering"
)

// The tiering policy daemon: the background half of adaptive redundancy.
// The flush engine already lands new chunks by temperature; this daemon
// handles objects whose temperature drifted *after* placement — it walks the
// metadata pool, grades each object (hitset temperature → target form),
// diffs the target against what the chunk map actually says, and executes
// the one action tiering.Decide picks (tiermigrate.go); a read moves no
// chunk. All I/O it issues rides the qos.Tiering class so foreground traffic
// keeps priority, and every action opens a trace span carrying the owning
// tenant's identity.

// TierStats counts the tiering subsystem's work. TierPass returns the delta
// of one pass; Store.TierStats returns the running totals.
type TierStats struct {
	Passes         int64
	ObjectsScanned int64
	Recaches       int64 // objects promoted to hot (bindings dropped, bytes recached)
	RecachedBytes  int64 // bytes read back into metadata objects
	Rededups       int64 // hot-form objects handed back to the dedup engine
	Evicts         int64 // objects whose stale hot-time cache was dropped
	EvictedChunks  int64 // cached copies dropped by those evicts
	PromotedChunks int64 // always 0: a warm object's chunks stay in their pool (bench reads it)
	DemotedChunks  int64 // chunk moves warm (replicated) → cold (EC)
	MigratedBytes  int64 // bytes moved between chunk pools
	RacedSkips     int64 // actions abandoned because a client write raced
	Errors         int64 // actions that failed (retried on a later pass)
}

func (t *TierStats) add(d TierStats) {
	t.Passes += d.Passes
	t.ObjectsScanned += d.ObjectsScanned
	t.Recaches += d.Recaches
	t.RecachedBytes += d.RecachedBytes
	t.Rededups += d.Rededups
	t.Evicts += d.Evicts
	t.EvictedChunks += d.EvictedChunks
	t.DemotedChunks += d.DemotedChunks
	t.MigratedBytes += d.MigratedBytes
	t.RacedSkips += d.RacedSkips
	t.Errors += d.Errors
}

// TierCensus is the per-temperature population snapshot taken by the last
// policy pass, indexed by hitset.Temperature (Cold=0, Warm=1, Hot=2).
type TierCensus struct {
	Objects [3]int64
	Bytes   [3]int64
}

// tierState is the daemon's mutable state, embedded in Store.
type tierState struct {
	daemon   sim.Loop // a TierPass every Tiering.Interval, first after one
	inFlight int      // object actions currently executing

	stats    TierStats
	census   TierCensus
	censusAt sim.Time
}

// TierStats returns the running totals of all tiering passes.
func (s *Store) TierStats() TierStats { return s.tier.stats }

// TierCensus returns the per-temperature census of the last pass and the
// sim-time it was taken.
func (s *Store) TierCensus() (TierCensus, sim.Time) { return s.tier.census, s.tier.censusAt }

// TierInFlight returns the number of object migrations currently executing.
func (s *Store) TierInFlight() int { return s.tier.inFlight }

// TieringDaemonRunning reports whether the policy daemon is live.
func (s *Store) TieringDaemonRunning() bool { return s.tier.daemon.Running() }

// StartTieringDaemon starts the policy daemon (no-op unless tiering is
// enabled): every Tiering.Interval it runs one TierPass. A daemon stopped but
// not yet at its next wake-up keeps running instead (DESIGN.md §9).
func (s *Store) StartTieringDaemon() {
	if s.cfg.Tiering.Enabled {
		s.tier.daemon.Start(s.cluster.Engine())
	}
}

// StopTieringDaemon asks the policy daemon to exit; it sees the request at
// its next wake-up, so a pass under way runs to its end first.
func (s *Store) StopTieringDaemon() { s.tier.daemon.Stop() }

// TierPass runs one policy pass: census every object's temperature, and for
// each object whose placement disagrees with its target form, execute the
// next migration step. Returns this pass's work as a TierStats delta.
// Callable directly (tests, dedupctl) as well as from the daemon.
func (s *Store) TierPass(p *sim.Proc) (TierStats, error) {
	var ps TierStats
	if !s.cfg.Tiering.Enabled {
		return ps, errors.New("core: tiering is not enabled")
	}
	ps.Passes = 1
	var census TierCensus
	gw := s.hostGWClass(anyHost(s), qos.Tiering)
	for _, oid := range s.cluster.ListObjects(s.meta) {
		if IsSystemObject(oid) {
			continue
		}
		ps.ObjectsScanned++
		cm, err := s.readChunkMap(p, gw, oid)
		if err != nil {
			continue // deleted meanwhile or unreachable: next pass; corrupt: scrub's finding
		}
		st, bytes := tierObjectState(cm)
		temp := s.cache.Temp(p.Now(), oid)
		census.Objects[temp]++
		census.Bytes[temp] += bytes
		act := tiering.Decide(tiering.FormFor(temp), st)
		if act == tiering.ActNone {
			continue
		}
		if err := s.applyTierAction(p, gw, oid, cm, act, &ps); err != nil {
			ps.Errors++
		}
	}
	s.tier.census = census
	s.tier.censusAt = p.Now()
	s.tier.stats.add(ps)
	reg := s.cluster.Metrics()
	reg.Counter("tier_passes_total").Inc()
	reg.Counter("tier_recaches_total").Add(ps.Recaches)
	reg.Counter("tier_recached_bytes_total").Add(ps.RecachedBytes)
	reg.Counter("tier_rededups_total").Add(ps.Rededups)
	reg.Counter("tier_evicted_chunks_total").Add(ps.EvictedChunks)
	reg.Counter("tier_demoted_chunks_total").Add(ps.DemotedChunks)
	reg.Counter("tier_migrated_bytes_total").Add(ps.MigratedBytes)
	reg.Counter("tier_raced_skips_total").Add(ps.RacedSkips)
	reg.Counter("tier_errors_total").Add(ps.Errors)
	return ps, nil
}

// tierObjectState folds a chunk map into the slot-population summary the
// decision layer consumes, plus the object's logical byte size.
func tierObjectState(cm *ChunkMap) (tiering.ObjectState, int64) {
	var st tiering.ObjectState
	var bytes int64
	for _, e := range cm.Entries {
		bytes += e.Len()
		switch {
		case e.Dirty:
			st.DirtySlots++
		case e.ChunkID == "":
			if e.Cached {
				st.CachedOnly++
			}
		case e.Cached:
			st.CachedBound++
		case e.Cold:
			st.ColdChunks++
		default:
			st.WarmChunks++
		}
	}
	return st, bytes
}

// tierSpans names each action's span ("tier.recache", ...), resolved once.
var tierSpans = func() (ls [tiering.ActEvict + 1]sim.Label) {
	for a := range ls {
		ls[a] = sim.Intern("tier." + tiering.Action(a).String())
	}
	return ls
}()

// applyTierAction executes one migration step under a trace span carrying
// the owning tenant and the tiering QoS class.
func (s *Store) applyTierAction(p *sim.Proc, gw *rados.Gateway, oid string, cm *ChunkMap, act tiering.Action, ps *TierStats) (err error) {
	sp := s.cluster.Trace().StartLabel(p, tierSpans[act]).
		SetOp(s.meta.Label(), 0, 0).
		SetTenant(sim.Intern(s.cache.TenantOf(oid))).
		SetClass(qos.Tiering.Label())
	s.tier.inFlight++
	defer func() {
		s.tier.inFlight--
		sp.SetErr(err)
		sp.Finish(p)
	}()
	switch act {
	case tiering.ActRecache:
		err = s.recacheObject(p, gw, oid, cm, ps)
	case tiering.ActRededup:
		err = s.rededupObject(p, gw, oid, ps)
	case tiering.ActEvict:
		err = s.evictObject(p, gw, oid, ps)
	case tiering.ActDemoteCold:
		err = s.migrateObjectChunks(p, gw, oid, cm, ps)
	}
	if errors.Is(err, rados.ErrNotFound) {
		err = nil // object deleted mid-action: nothing to migrate
	}
	return err
}
