package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// TestRefKeyRoundTrip: every Ref must survive Key()/parseRefKey and
// IntentKey()/parseIntentKey unchanged — including the OIDs the old
// "pool|oid|offset" format mis-parsed (embedded '|', trailing '.', digits,
// colons), which left their references invisible to GC forever.
func TestRefKeyRoundTrip(t *testing.T) {
	cases := []Ref{
		{Pool: 0, OID: "", Offset: 0},
		{Pool: 1, OID: "o", Offset: 4096},
		{Pool: 7, OID: "vol|snap", Offset: 32768},                    // '|' inside the OID
		{Pool: 7, OID: "trailing...", Offset: 0},                     // eaten by TrimRight before
		{Pool: 2, OID: "a|b|c|", Offset: 128},                        // multiple separators
		{Pool: 3, OID: "123", Offset: 5},                             // all-digit OID
		{Pool: 4, OID: "x:y:z", Offset: 9},                           // colons (the new length delimiter)
		{Pool: 5, OID: "12:34|56.", Offset: 77},                      // everything at once
		{Pool: 6, OID: "chaos-o001", Offset: 1 << 40},                // large offset
		{Pool: 18446744073709551615, OID: "max", Offset: 0},          // max pool id
		{Pool: 9, OID: string([]byte{0, 1, 2, '|', '.'}), Offset: 3}, // binary junk
	}
	for _, want := range cases {
		if len(want.Key()) < RefEntryOverhead {
			t.Errorf("ref key %d bytes, want >= %d (paper's per-ref footprint)", len(want.Key()), RefEntryOverhead)
		}
		got, ok := parseRefKey(want.Key())
		if !ok || got != want {
			t.Errorf("ref key round trip: %+v -> %q -> %+v (ok=%v)", want, want.Key(), got, ok)
		}
		got, ok = parseIntentKey(want.IntentKey())
		if !ok || got != want {
			t.Errorf("intent key round trip: %+v -> %q -> %+v (ok=%v)", want, want.IntentKey(), got, ok)
		}
		if isIntentKey(want.Key()) || isRefKey(want.IntentKey()) {
			t.Errorf("key kinds confused for %+v", want)
		}
	}
	// Property check over random OIDs drawn from a hostile alphabet.
	rng := rand.New(rand.NewSource(42))
	alphabet := []byte("ab|.:0123456789-")
	for i := 0; i < 2000; i++ {
		oid := make([]byte, rng.Intn(40))
		for j := range oid {
			oid[j] = alphabet[rng.Intn(len(alphabet))]
		}
		want := Ref{Pool: rng.Uint64() % 1000, OID: string(oid), Offset: rng.Int63n(1 << 30)}
		got, ok := parseRefKey(want.Key())
		if !ok || got != want {
			t.Fatalf("random round trip failed: %+v -> %q -> %+v (ok=%v)", want, want.Key(), got, ok)
		}
	}
	// Keys the store never wrote must not parse.
	for _, k := range []string{"", "ref.", "ref.x|1:y|2", "ref.1|9:short|2", "ref.1|-1:a|2", "ref.1|1:a|", "ref.1|1:a|2x", "bogus"} {
		if ref, ok := parseRefKey(k); ok {
			t.Errorf("parseRefKey(%q) = %+v, want reject", k, ref)
		}
	}
}

// FuzzRefKeyRoundTrip drives parseRefKey with arbitrary OIDs.
func FuzzRefKeyRoundTrip(f *testing.F) {
	f.Add(uint64(1), "plain", int64(0))
	f.Add(uint64(7), "with|pipe", int64(4096))
	f.Add(uint64(0), "dots...", int64(1<<40))
	f.Fuzz(func(t *testing.T, pool uint64, oid string, offset int64) {
		want := Ref{Pool: pool, OID: oid, Offset: offset}
		got, ok := parseRefKey(want.Key())
		if !ok || got != want {
			t.Fatalf("round trip: %+v -> %q -> %+v (ok=%v)", want, want.Key(), got, ok)
		}
	})
}

// TestGCRaceSkipsSweep: GC verifies references outside the chunk's PG lock,
// so any mutation of the chunk between that mark and the sweep must void the
// sweep (version compare) and count as a raced skip. Each case is what the
// handler of core.gc.before_sweep does in that window, and each leaves a live binding "racer" that names
// the chunk, which replaying the mark's decision would break:
//
//   - incref: a racing flush takes a new reference (intent, bind, commit);
//   - recommit: the mark judged racer's committed reference stale; its flush
//     re-runs phase 1, finds the reference already committed and changes no
//     key, then binds;
//   - recreate: the chunk is deleted and re-created exactly as the mark saw
//     it (same data and reference key), then bound. A generation kept in the
//     object would restart with it, so only a version that never repeats
//     tells this chunk from the one the mark saw.
func TestGCRaceSkipsSweep(t *testing.T) {
	data := bytes.Repeat([]byte{9}, 4096)
	chunkOID := FingerprintID(data)
	for _, tc := range []struct {
		name string
		// committed: the chunk starts with racer's reference committed but
		// unbound (the mark finds it stale), else with no reference at all.
		committed bool
		race      func(t *testing.T, e *env, p *sim.Proc, gw *rados.Gateway, ref Ref)
	}{
		{"incref", false, func(t *testing.T, e *env, p *sim.Proc, gw *rados.Gateway, ref Ref) {
			if err := gw.Mutate(p, e.s.chunk, chunkOID, putIntentFn(e.s.chunk, data, ref, p.Now()+sim.Time(intentLease), nil)); err != nil {
				t.Errorf("racing intent: %v", err)
			}
			fabricateBinding(t, e, p, "racer", chunkOID)
			if err := gw.Mutate(p, e.s.chunk, chunkOID, commitIntentFn(ref)); err != nil {
				t.Errorf("racing commit: %v", err)
			}
		}},
		{"recommit", true, func(t *testing.T, e *env, p *sim.Proc, gw *rados.Gateway, ref Ref) {
			var out intentOutcome
			if err := gw.Mutate(p, e.s.chunk, chunkOID, putIntentFn(e.s.chunk, data, ref, p.Now()+sim.Time(intentLease), &out)); err != nil || !out.committed {
				t.Errorf("racing re-commit: committed=%v, %v; want it to find the reference committed", out.committed, err)
			}
			fabricateBinding(t, e, p, "racer", chunkOID)
		}},
		{"recreate", true, func(t *testing.T, e *env, p *sim.Proc, gw *rados.Gateway, ref Ref) {
			if err := gw.Delete(p, e.s.chunk, chunkOID); err != nil {
				t.Errorf("delete: %v", err)
			}
			err := gw.Mutate(p, e.s.chunk, chunkOID, func(rados.View) (*store.Txn, error) {
				return store.NewTxn().WriteFull(bytes.Clone(data)).OmapSet(ref.Key(), nil), nil
			})
			if err != nil {
				t.Errorf("re-create: %v", err)
			}
			fabricateBinding(t, e, p, "racer", chunkOID)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
			ref := Ref{Pool: e.s.meta.ID, OID: "racer", Offset: 0}
			// The aftermath of a crashed flush, built with the protocol's own
			// steps: no binding names the chunk, so the mark decides to delete it.
			e.run(t, func(p *sim.Proc) {
				gw := e.s.hostGW(anyHost(e.s))
				settle := abortIntentFn(ref, false)
				if tc.committed {
					settle = commitIntentFn(ref)
				}
				for _, fn := range []rados.MutateFn{putIntentFn(e.s.chunk, data, ref, p.Now(), nil), settle} {
					if err := gw.Mutate(p, e.s.chunk, chunkOID, fn); err != nil {
						t.Fatal(err)
					}
				}
			})
			raced := 0
			e.at(atBeforeSweep, func(p *sim.Proc, oid string) bool {
				if oid == chunkOID {
					raced++
					tc.race(t, e, p, e.s.hostGW(anyHost(e.s)), ref)
				}
				return false
			})
			e.run(t, func(p *sim.Proc) {
				stats, err := e.s.GC(p)
				if err != nil {
					t.Fatal(err)
				}
				if raced != 1 || stats.RacedSkips != 1 || stats.ChunksDeleted != 0 {
					t.Errorf("point reached %d times, RacedSkips %d, ChunksDeleted %d; want 1, 1, 0 (the racer must win)",
						raced, stats.RacedSkips, stats.ChunksDeleted)
				}
			})
			// A later pass with no race sees the live binding and keeps the chunk.
			e.eng.SetPoints(nil)
			e.run(t, func(p *sim.Proc) {
				stats, err := e.s.GC(p)
				if err != nil || stats.ChunksDeleted != 0 || stats.StaleRefs != 0 {
					t.Errorf("second pass deleted=%d stale=%d, %v; want 0/0", stats.ChunksDeleted, stats.StaleRefs, err)
				}
			})
			e.checkScrub(t)
		})
	}
}

// TestRefcountModes: the same seeded workload must keep reference tables
// exact in both decrement disciplines — strict (inline delete at zero) and
// false-positive (§4.6, GC reclaims) — and end with identical surviving
// data.
func TestRefcountModes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fpRefs bool
	}{
		{name: "strict", fpRefs: false},
		{name: "false-positive", fpRefs: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = tc.fpRefs })
			rng := rand.New(rand.NewSource(99))
			shared := bytes.Repeat([]byte{7}, 4096)
			const objects = 8

			// Every object: one shared chunk + one unique chunk.
			e.run(t, func(p *sim.Proc) {
				for i := 0; i < objects; i++ {
					unique := make([]byte, 4096)
					rng.Read(unique)
					if err := e.cl.Write(p, oidFor(i), 0, shared); err != nil {
						t.Fatal(err)
					}
					if err := e.cl.Write(p, oidFor(i), 4096, unique); err != nil {
						t.Fatal(err)
					}
				}
			})
			e.drain(t)

			e.run(t, func(p *sim.Proc) {
				if n := len(chunkState(t, p, e, e.s.chunk, FingerprintID(shared)).refs); n != objects {
					t.Fatalf("shared chunk has %d committed references, want %d", n, objects)
				}
			})

			// Delete half the namespace; strict mode reclaims unique chunks
			// inline, false-positive mode needs the collector.
			e.run(t, func(p *sim.Proc) {
				for i := 0; i < objects/2; i++ {
					if err := e.cl.Delete(p, oidFor(i)); err != nil {
						t.Fatal(err)
					}
				}
			})
			if tc.fpRefs {
				e.run(t, func(p *sim.Proc) {
					if _, err := e.s.GC(p); err != nil {
						t.Fatal(err)
					}
				})
			}

			e.run(t, func(p *sim.Proc) {
				if n := len(chunkState(t, p, e, e.s.chunk, FingerprintID(shared)).refs); n != objects/2 {
					t.Fatalf("shared chunk has %d committed references after deletes, want %d", n, objects/2)
				}
				// objects/2 unique chunks + 1 shared chunk must remain.
				if got := len(e.c.ListObjects(e.s.chunk)); got != objects/2+1 {
					t.Errorf("%d chunk objects remain, want %d", got, objects/2+1)
				}
			})
			e.checkScrub(t)
		})
	}
}

func oidFor(i int) string { return fmt.Sprintf("obj%02d", i) }
