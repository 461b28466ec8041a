// Package hitset implements time-sliced object-access tracking, an analog of
// Ceph's HitSet used by the paper's cache manager (§5): it "sustainably
// maintains recently accessed object set per second and counts for each
// object access"; an object whose access count over the retained window
// exceeds HitCount is considered hot and kept cached in the metadata pool.
package hitset

import (
	"time"

	"dedupstore/internal/bloom"
	"dedupstore/internal/sim"
)

// Slice is one time window's access set: a bloom filter for membership plus
// an exact count map for the current (open) slice.
type Slice struct {
	Start  sim.Time
	filter *bloom.Filter
}

// Tracker maintains a ring of recent HitSet slices.
type Tracker struct {
	period    time.Duration
	retain    int
	slices    []*Slice // slices[len-1] is the open one
	lastRoll  sim.Time
	hitCount  int
	totalHits uint64

	decay      float64
	hotDecayed float64
	warmAt     float64
}

// Temperature is a multi-level hotness classification derived from decayed
// hit counts. The boolean Hot() threshold the paper uses (§4.3) is the top
// band; tiering policies additionally distinguish warm (recently but not
// heavily accessed) from cold (idle) objects to pick a redundancy form per
// object (FASTEN-style popularity-driven placement).
type Temperature int

const (
	// TempCold objects have (near) zero recent accesses: candidates for
	// erasure-coded, deduplicated storage.
	TempCold Temperature = iota
	// TempWarm objects see occasional traffic: replicated + deduplicated.
	TempWarm
	// TempHot objects are in the working set: kept replicated and
	// undeduplicated so reads and writes never pay redirection.
	TempHot
)

var tempNames = [...]string{"cold", "warm", "hot"}

func (t Temperature) String() string {
	if t >= TempCold && t <= TempHot {
		return tempNames[t]
	}
	return "invalid"
}

// Temperatures lists the levels from cold to hot.
func Temperatures() []Temperature { return []Temperature{TempCold, TempWarm, TempHot} }

// expectedPerSlice sizes each slice's bloom filter.
const expectedPerSlice = 4096

// Config controls HitSet behaviour.
type Config struct {
	// Period is the wall time each slice covers (paper: per second).
	Period time.Duration
	// Retain is how many closed slices are kept for hotness queries.
	Retain int
	// HitCount is the hotness threshold: an object seen in at least HitCount
	// of the retained slices is hot.
	HitCount int

	// Decay is the per-slice-age geometric factor for DecayedHits: a hit in
	// the open slice weighs 1, one slice older weighs Decay, two slices
	// older Decay², … Zero or negative selects the default 0.5.
	Decay float64
	// HotDecayed / WarmDecayed are the temperature band thresholds on the
	// decayed hit count: decayed ≥ HotDecayed is hot, ≥ WarmDecayed is
	// warm, below is cold. Zero or negative selects the defaults (1.25 and
	// 0.25: roughly "hit in at least two recent slices" and "hit within the
	// last couple of slices").
	HotDecayed, WarmDecayed float64
}

// DefaultConfig mirrors the paper's setup: per-second HitSets.
func DefaultConfig() Config {
	return Config{Period: time.Second, Retain: 8, HitCount: 2,
		Decay: 0.5, HotDecayed: 1.25, WarmDecayed: 0.25}
}

// New creates a tracker.
func New(cfg Config) *Tracker {
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	if cfg.Retain < 1 {
		cfg.Retain = 1
	}
	if cfg.HitCount < 1 {
		cfg.HitCount = 1
	}
	if cfg.Decay <= 0 {
		cfg.Decay = 0.5
	}
	if cfg.HotDecayed <= 0 {
		cfg.HotDecayed = 1.25
	}
	if cfg.WarmDecayed <= 0 {
		cfg.WarmDecayed = 0.25
	}
	t := &Tracker{period: cfg.Period, retain: cfg.Retain, hitCount: cfg.HitCount,
		decay: cfg.Decay, hotDecayed: cfg.HotDecayed, warmAt: cfg.WarmDecayed}
	t.slices = []*Slice{t.newSlice(0)}
	return t
}

func (t *Tracker) newSlice(at sim.Time) *Slice {
	return &Slice{Start: at, filter: bloom.NewWithEstimates(expectedPerSlice, 0.01)}
}

func (t *Tracker) roll(now sim.Time) {
	steps := int64(now-t.lastRoll) / int64(t.period)
	if steps <= 0 {
		return
	}
	// Long idle gap: every pre-gap slice would be rolled out anyway, so jump
	// straight to the final window instead of materializing (and trimming)
	// one bloom filter per missed interval. The resulting slice starts and
	// lastRoll are exactly what the step-by-step roll would produce.
	if steps > int64(t.retain) {
		t.lastRoll += sim.Time(steps-int64(t.retain)-1) * sim.Time(t.period)
		t.slices = t.slices[:0]
		t.slices = append(t.slices, t.newSlice(t.lastRoll))
	}
	for now-t.lastRoll >= sim.Time(t.period) {
		t.lastRoll += sim.Time(t.period)
		t.slices = append(t.slices, t.newSlice(t.lastRoll))
		if len(t.slices) > t.retain+1 { // +1 for the open slice
			t.slices = t.slices[1:]
		}
	}
}

// Record notes an access to oid at virtual time now.
func (t *Tracker) Record(now sim.Time, oid string) {
	t.roll(now)
	t.slices[len(t.slices)-1].filter.AddString(oid)
	t.totalHits++
}

// Hits returns in how many retained slices oid appears (bloom-approximate).
func (t *Tracker) Hits(now sim.Time, oid string) int {
	t.roll(now)
	n := 0
	for _, s := range t.slices {
		if s.filter.ContainsString(oid) {
			n++
		}
	}
	return n
}

// Hot reports whether oid's recent access count reaches the HitCount
// threshold. Hot objects are kept cached in the metadata pool and skipped by
// the dedup engine until they cool down (paper §3.2, §4.3).
func (t *Tracker) Hot(now sim.Time, oid string) bool {
	return t.Hits(now, oid) >= t.hitCount
}

// DecayedHits returns the recency-weighted access score of oid: each
// retained slice that contains oid contributes Decay^age, where the open
// slice has age 0. A burst of old accesses therefore decays toward zero as
// slices roll, while sustained access holds the score near its geometric
// maximum 1/(1-Decay).
func (t *Tracker) DecayedHits(now sim.Time, oid string) float64 {
	t.roll(now)
	score := 0.0
	n := len(t.slices)
	for i, s := range t.slices {
		if !s.filter.ContainsString(oid) {
			continue
		}
		w := 1.0
		for age := n - 1 - i; age > 0; age-- {
			w *= t.decay
		}
		score += w
	}
	return score
}

// Temp classifies oid into a temperature band from its decayed hit score.
func (t *Tracker) Temp(now sim.Time, oid string) Temperature {
	switch d := t.DecayedHits(now, oid); {
	case d >= t.hotDecayed:
		return TempHot
	case d >= t.warmAt:
		return TempWarm
	default:
		return TempCold
	}
}

// TotalHits returns the lifetime number of recorded accesses.
func (t *Tracker) TotalHits() uint64 { return t.totalHits }

// Slices returns the number of slices currently retained (including open).
func (t *Tracker) Slices() int { return len(t.slices) }
