package hitset

import (
	"testing"
	"time"

	"dedupstore/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.Time(d) }

func TestHotAfterRepeatedAccess(t *testing.T) {
	tr := New(Config{Period: time.Second, Retain: 4, HitCount: 2})
	tr.Record(at(100*time.Millisecond), "obj1")
	if tr.Hot(at(200*time.Millisecond), "obj1") {
		t.Fatal("hot after a single access in one slice")
	}
	tr.Record(at(1100*time.Millisecond), "obj1") // second slice
	if !tr.Hot(at(1200*time.Millisecond), "obj1") {
		t.Fatal("not hot after access in two slices")
	}
}

func TestColdObjectNeverHot(t *testing.T) {
	tr := New(DefaultConfig())
	tr.Record(0, "other")
	if tr.Hot(0, "never-seen") {
		t.Fatal("unseen object reported hot")
	}
}

func TestHotnessExpires(t *testing.T) {
	tr := New(Config{Period: time.Second, Retain: 2, HitCount: 2})
	tr.Record(at(0), "obj")
	tr.Record(at(1100*time.Millisecond), "obj")
	if !tr.Hot(at(1200*time.Millisecond), "obj") {
		t.Fatal("should be hot")
	}
	// After the retained window slides past both accesses, hotness decays.
	if tr.Hot(at(10*time.Second), "obj") {
		t.Fatal("hotness did not expire after window slid")
	}
}

func TestSliceRetention(t *testing.T) {
	tr := New(Config{Period: time.Second, Retain: 3, HitCount: 1})
	for i := 0; i < 10; i++ {
		tr.Record(at(time.Duration(i)*time.Second+time.Millisecond), "o")
	}
	if got := len(tr.slices); got > 4 { // retain + open
		t.Fatalf("retained %d slices, want <= 4", got)
	}
}

func TestHitsCountsSlices(t *testing.T) {
	tr := New(Config{Period: time.Second, Retain: 8, HitCount: 3})
	for i := 0; i < 3; i++ {
		tr.Record(at(time.Duration(i)*time.Second+time.Millisecond), "obj")
	}
	if got := tr.Hits(at(3100*time.Millisecond), "obj"); got < 3 {
		t.Fatalf("hits=%d want >=3", got)
	}
	if !tr.Hot(at(3100*time.Millisecond), "obj") {
		t.Fatal("obj should be hot at threshold")
	}
}

func TestConfigClamping(t *testing.T) {
	tr := New(Config{}) // all zero: must not panic, must work
	tr.Record(0, "a")
	_ = tr.Hot(0, "a")
}

// TestRollLongIdleGap drives the tracker across an idle gap spanning many
// thousands of missed periods and checks that the fast path lands on exactly
// the state the step-by-step roll would produce: bounded slice count, the
// same lastRoll (observable via slice starts staying period-aligned), stale
// hits fully expired, and new recording still working.
func TestRollLongIdleGap(t *testing.T) {
	tr := New(Config{Period: time.Second, Retain: 4, HitCount: 1})
	tr.Record(at(500*time.Millisecond), "old")

	// Jump far ahead: ~1e6 missed periods at once.
	far := at(1_000_000*time.Second + 300*time.Millisecond)
	if got := tr.Hits(far, "old"); got != 0 {
		t.Fatalf("hits across huge gap = %d, want 0", got)
	}
	if got := len(tr.slices); got > 5 {
		t.Fatalf("slice count after gap = %d, want <= retain+1 = 5", got)
	}
	// The open slice must cover `far`: recording and querying in the same
	// period must agree.
	tr.Record(far, "fresh")
	if got := tr.Hits(at(1_000_000*time.Second+900*time.Millisecond), "fresh"); got != 1 {
		t.Fatalf("hits for fresh record after gap = %d, want 1", got)
	}
	// One more period step must roll exactly one slice, i.e. the fast path
	// left lastRoll period-aligned rather than overshooting.
	if got := tr.Hits(at(1_000_001*time.Second+100*time.Millisecond), "fresh"); got != 1 {
		t.Fatalf("hits one period later = %d, want 1 (slice should be retained)", got)
	}
}

// TestRollGapMatchesStepwise cross-checks the long-gap fast path against a
// second tracker driven through the same gap one period at a time: the
// retained windows must agree on membership for every probed object.
func TestRollGapMatchesStepwise(t *testing.T) {
	const retain = 3
	mk := func() *Tracker { return New(Config{Period: time.Second, Retain: retain, HitCount: 1}) }
	fast, slow := mk(), mk()
	for _, tr := range []*Tracker{fast, slow} {
		tr.Record(at(200*time.Millisecond), "a")
		tr.Record(at(1300*time.Millisecond), "b")
	}
	end := 5000 * time.Second
	// slow: touch every period so roll() advances one step at a time.
	for ts := 2 * time.Second; ts <= end; ts += time.Second {
		slow.Hits(at(ts+10*time.Millisecond), "probe")
	}
	// fast: single query at the end takes the gap fast path.
	for _, oid := range []string{"a", "b", "probe"} {
		if f, s := fast.Hits(at(end+10*time.Millisecond), oid), slow.Hits(at(end+10*time.Millisecond), oid); f != s {
			t.Fatalf("hits(%q): fast=%d slow=%d", oid, f, s)
		}
	}
	if f, s := len(fast.slices), len(slow.slices); f != s {
		t.Fatalf("slice count: fast=%d slow=%d", f, s)
	}
}

// TestHitsMonotoneInAccesses is the satellite property test: within a fixed
// window (no roll between probes), recording strictly more accesses for an
// object never lowers its Hits count — bloom filters have false positives
// but no false negatives, so Hits is monotone in the recorded access set.
func TestHitsMonotoneInAccesses(t *testing.T) {
	tr := New(Config{Period: time.Second, Retain: 16, HitCount: 2})
	now := at(0)
	prev := tr.Hits(now, "obj")
	for i := 0; i < 12; i++ {
		// Advance within the retained window: one new slice per record.
		now = at(time.Duration(i)*time.Second + 100*time.Millisecond)
		tr.Record(now, "obj")
		got := tr.Hits(now, "obj")
		if got < prev {
			t.Fatalf("after access %d: Hits dropped %d -> %d", i+1, prev, got)
		}
		if got < 1 {
			t.Fatalf("after access %d: Hits=%d, bloom lost a recorded access", i+1, got)
		}
		prev = got
	}
}

func TestDecayedHitsWeighting(t *testing.T) {
	tr := New(Config{Period: time.Second, Retain: 8, HitCount: 2})
	tr.Record(at(100*time.Millisecond), "obj")
	// Open slice hit weighs 1.0.
	if d := tr.DecayedHits(at(200*time.Millisecond), "obj"); d != 1.0 {
		t.Fatalf("open-slice decayed hits = %v, want 1.0", d)
	}
	// One roll later the same hit weighs decay = 0.5.
	if d := tr.DecayedHits(at(1100*time.Millisecond), "obj"); d != 0.5 {
		t.Fatalf("one-slice-old decayed hits = %v, want 0.5", d)
	}
	// A second hit in the new open slice adds 1.0.
	tr.Record(at(1200*time.Millisecond), "obj")
	if d := tr.DecayedHits(at(1300*time.Millisecond), "obj"); d != 1.5 {
		t.Fatalf("decayed hits after second access = %v, want 1.5", d)
	}
}

func TestTemperatureBands(t *testing.T) {
	tr := New(Config{Period: time.Second, Retain: 8, HitCount: 2})
	if got := tr.Temp(at(0), "never"); got != TempCold {
		t.Fatalf("unseen object temp = %v, want cold", got)
	}
	// One recent access: decayed 1.0 — warm, not hot.
	tr.Record(at(100*time.Millisecond), "once")
	if got := tr.Temp(at(200*time.Millisecond), "once"); got != TempWarm {
		t.Fatalf("single-access temp = %v, want warm", got)
	}
	// Sustained access across slices: decayed 1.0 + 0.5 = 1.5 ≥ 1.25 — hot.
	tr.Record(at(300*time.Millisecond), "busy")
	tr.Record(at(1100*time.Millisecond), "busy")
	if got := tr.Temp(at(1200*time.Millisecond), "busy"); got != TempHot {
		t.Fatalf("sustained-access temp = %v, want hot", got)
	}
	// After a long idle stretch everything cools back down.
	if got := tr.Temp(at(100*time.Second), "busy"); got != TempCold {
		t.Fatalf("idle temp = %v, want cold", got)
	}
}

func TestTemperatureString(t *testing.T) {
	want := map[Temperature]string{TempCold: "cold", TempWarm: "warm", TempHot: "hot"}
	for tp, name := range want {
		if tp.String() != name {
			t.Fatalf("Temperature(%d).String()=%q want %q", tp, tp.String(), name)
		}
	}
	if Temperature(99).String() != "invalid" {
		t.Fatal("out-of-range temperature should stringify as invalid")
	}
}
