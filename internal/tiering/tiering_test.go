package tiering

import (
	"testing"

	"dedupstore/internal/hitset"
)

func TestFormFor(t *testing.T) {
	cases := map[hitset.Temperature]Form{
		hitset.TempHot:  FormCached,
		hitset.TempWarm: FormDedup,
		hitset.TempCold: FormDedupEC,
	}
	for temp, want := range cases {
		if got := FormFor(temp); got != want {
			t.Errorf("FormFor(%v) = %v, want %v", temp, got, want)
		}
	}
}

func TestStrings(t *testing.T) {
	if FormCached.String() != "cached" || FormDedup.String() != "dedup" || FormDedupEC.String() != "dedup-ec" {
		t.Fatal("form names wrong")
	}
	if Form(99).String() != "invalid" {
		t.Fatal("out-of-range form should stringify as invalid")
	}
	names := map[Action]string{
		ActNone: "none", ActRecache: "recache",
		ActDemoteCold: "demote-cold", ActRededup: "rededup", ActEvict: "evict",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("Action(%d).String()=%q want %q", a, a.String(), want)
		}
	}
	if Action(99).String() != "invalid" {
		t.Fatal("out-of-range action should stringify as invalid")
	}
}

func TestDecide(t *testing.T) {
	cases := []struct {
		name   string
		target Form
		st     ObjectState
		want   Action
	}{
		// Dirty slots always defer to the dedup engine, whatever the target.
		{"dirty-hot", FormCached, ObjectState{DirtySlots: 1, ColdChunks: 3}, ActNone},
		{"dirty-warm", FormDedup, ObjectState{DirtySlots: 2, CachedOnly: 1}, ActNone},
		{"dirty-cold", FormDedupEC, ObjectState{DirtySlots: 1, WarmChunks: 4}, ActNone},

		// Hot target: anything deduplicated comes back into the cache.
		{"hot-already", FormCached, ObjectState{CachedOnly: 4}, ActNone},
		{"hot-from-warm", FormCached, ObjectState{WarmChunks: 4}, ActRecache},
		{"hot-from-cold", FormCached, ObjectState{ColdChunks: 4}, ActRecache},
		{"hot-from-mixed", FormCached, ObjectState{WarmChunks: 2, ColdChunks: 2}, ActRecache},
		{"hot-cached-bound", FormCached, ObjectState{CachedBound: 4}, ActRecache},
		{"hot-empty", FormCached, ObjectState{}, ActNone},

		// Warm target: undedup'd slots re-dedup first, then cache eviction;
		// chunks stay in the pool they are in.
		{"warm-already", FormDedup, ObjectState{WarmChunks: 4}, ActNone},
		{"warm-from-hot", FormDedup, ObjectState{CachedOnly: 4}, ActRededup},
		{"warm-from-cold", FormDedup, ObjectState{ColdChunks: 4}, ActNone},
		{"warm-mixed-pools", FormDedup, ObjectState{WarmChunks: 2, ColdChunks: 2}, ActNone},
		{"warm-cached-bound", FormDedup, ObjectState{CachedBound: 2, WarmChunks: 2}, ActEvict},
		{"warm-rededup-first", FormDedup, ObjectState{CachedOnly: 1, ColdChunks: 3}, ActRededup},

		// Cold target: undedup'd slots re-dedup first, then replicated
		// chunks move to EC, then cache eviction.
		{"cold-already", FormDedupEC, ObjectState{ColdChunks: 4}, ActNone},
		{"cold-from-hot", FormDedupEC, ObjectState{CachedOnly: 4}, ActRededup},
		{"cold-from-warm", FormDedupEC, ObjectState{WarmChunks: 4}, ActDemoteCold},
		{"cold-cached-bound", FormDedupEC, ObjectState{CachedBound: 2, ColdChunks: 2}, ActEvict},
		{"cold-empty", FormDedupEC, ObjectState{}, ActNone},
	}
	for _, tc := range cases {
		if got := Decide(tc.target, tc.st); got != tc.want {
			t.Errorf("%s: Decide(%v, %+v) = %v, want %v", tc.name, tc.target, tc.st, got, tc.want)
		}
	}
}

// TestDecideConverges: from any reachable state, repeatedly applying the
// decided action's *intended effect* reaches ActNone within a bounded number
// of steps — the state machine has no cycles.
func TestDecideConverges(t *testing.T) {
	apply := func(st ObjectState, a Action, target Form) ObjectState {
		switch a {
		case ActRecache:
			st.CachedOnly += st.WarmChunks + st.ColdChunks + st.CachedBound
			st.WarmChunks, st.ColdChunks, st.CachedBound = 0, 0, 0
		case ActDemoteCold:
			st.ColdChunks += st.WarmChunks
			st.WarmChunks = 0
		case ActRededup:
			// Slots become dirty; the engine then flushes them into the pool
			// the target selects. Model both steps.
			n := st.CachedOnly
			st.CachedOnly = 0
			if target == FormDedupEC {
				st.ColdChunks += n
			} else {
				st.WarmChunks += n
			}
			st.CachedBound = 0
		case ActEvict:
			// Cached-bound slots keep their binding, drop the cache.
			// The binding pool is whichever it already was; assume warm.
			st.WarmChunks += st.CachedBound
			st.CachedBound = 0
		}
		return st
	}
	for _, target := range []Form{FormCached, FormDedup, FormDedupEC} {
		for _, start := range []ObjectState{
			{CachedOnly: 3}, {WarmChunks: 3}, {ColdChunks: 3}, {CachedBound: 3},
			{CachedOnly: 1, WarmChunks: 1, ColdChunks: 1, CachedBound: 1},
		} {
			st := start
			steps := 0
			for {
				a := Decide(target, st)
				if a == ActNone {
					break
				}
				st = apply(st, a, target)
				steps++
				if steps > 5 {
					t.Fatalf("target %v from %+v: no convergence after %d steps (state %+v)", target, start, steps, st)
				}
			}
		}
	}
}
