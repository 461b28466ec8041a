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
	period   time.Duration
	retain   int
	slices   []*Slice // slices[len-1] is the open one
	lastRoll sim.Time
	hitCount int
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
	// TempWarm objects see occasional traffic: deduplicated, in either pool.
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
}

const (
	// decay is the per-slice-age geometric factor for DecayedHits: a hit in
	// the open slice weighs 1, one slice older weighs decay, two slices
	// older decay², …
	decay = 0.5
	// hotDecayed / warmDecayed are the temperature band thresholds on the
	// decayed hit count: decayed ≥ hotDecayed is hot, ≥ warmDecayed is
	// warm, below is cold. Roughly "hit in at least two recent slices" and
	// "hit within the last couple of slices".
	hotDecayed, warmDecayed = 1.25, 0.25
)

// DefaultConfig mirrors the paper's setup: per-second HitSets.
func DefaultConfig() Config {
	return Config{Period: time.Second, Retain: 8, HitCount: 2}
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
	t := &Tracker{period: cfg.Period, retain: cfg.Retain, hitCount: cfg.HitCount}
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
// retained slice that contains oid contributes decay^age, where the open
// slice has age 0. A burst of old accesses therefore decays toward zero as
// slices roll, while sustained access holds the score near its geometric
// maximum 1/(1-decay).
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
			w *= decay
		}
		score += w
	}
	return score
}

// Temp classifies oid into a temperature band from its decayed hit score.
func (t *Tracker) Temp(now sim.Time, oid string) Temperature {
	switch d := t.DecayedHits(now, oid); {
	case d >= hotDecayed:
		return TempHot
	case d >= warmDecayed:
		return TempWarm
	default:
		return TempCold
	}
}
