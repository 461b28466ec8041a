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

// TestDecodeRC: only a well-formed 16-byte xattr decodes; short, long and
// legacy 8-byte values are rejected (and surface as scrub issues / readRC
// errors instead of silently reading as count 0).
func TestDecodeRC(t *testing.T) {
	count, gen, ok := decodeRC(encodeRC(42, 7))
	if !ok || count != 42 || gen != 7 {
		t.Fatalf("decodeRC(encodeRC(42,7)) = %d,%d,%v", count, gen, ok)
	}
	for _, raw := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, 8), make([]byte, 15), make([]byte, 17)} {
		if _, _, ok := decodeRC(raw); ok {
			t.Errorf("decodeRC accepted %d bytes", len(raw))
		}
	}
}

// TestGCIncrefRaceSkipsSweep: the GC verifies references outside the chunk's
// PG lock, so a reference taken between verification and sweep must
// invalidate the sweep (generation compare) — the old code replayed the
// stale decision and could delete a chunk a racing incref had just made
// live again.
func TestGCIncrefRaceSkipsSweep(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	data := bytes.Repeat([]byte{9}, 4096)
	chunkOID := FingerprintID(data)

	// Fabricate the aftermath of a crashed flush: the chunk exists with no
	// references at all (an aborted intent), so GC's mark phase decides to
	// delete it.
	e.run(t, func(p *sim.Proc) {
		gw := e.s.hostGW(anyHost(e.s))
		err := gw.Mutate(p, e.s.chunk, chunkOID, func(v rados.View) (*store.Txn, error) {
			return store.NewTxn().WriteFull(data).SetXattr(XattrRefCount, encodeRC(0, 3)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	// Between mark and sweep, a racing flush references the chunk: intent,
	// binding, commit — exactly what a concurrent write of the same content
	// would do.
	ref := Ref{Pool: e.s.meta.ID, OID: "racer", Offset: 0}
	raced := 0
	e.s.gcHookBeforeSweep = func(p *sim.Proc, oid string) {
		if oid != chunkOID {
			return
		}
		raced++
		gw := e.s.hostGW(anyHost(e.s))
		if err := gw.Mutate(p, e.s.chunk, chunkOID, putIntentFn(data, ref, p.Now()+sim.Time(intentLease), nil)); err != nil {
			t.Errorf("racing intent: %v", err)
		}
		cm := &ChunkMap{Entries: []Entry{{Start: 0, End: 4096, ChunkID: chunkOID}}}
		err := gw.Mutate(p, e.s.meta, "racer", func(rados.View) (*store.Txn, error) {
			return store.NewTxn().Create().SetXattr(XattrChunkMap, cm.Marshal()), nil
		})
		if err != nil {
			t.Errorf("racing bind: %v", err)
		}
		if err := gw.Mutate(p, e.s.chunk, chunkOID, commitIntentFn(ref)); err != nil {
			t.Errorf("racing commit: %v", err)
		}
	}

	e.run(t, func(p *sim.Proc) {
		stats, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if raced != 1 {
			t.Fatalf("hook fired %d times, want 1", raced)
		}
		if stats.RacedSkips != 1 {
			t.Errorf("RacedSkips = %d, want 1", stats.RacedSkips)
		}
		if stats.ChunksDeleted != 0 {
			t.Errorf("ChunksDeleted = %d, want 0 (racing incref must win)", stats.ChunksDeleted)
		}
		ok, err := e.s.hostGW(anyHost(e.s)).Exists(p, e.s.chunk, chunkOID)
		if err != nil || !ok {
			t.Fatalf("chunk deleted despite racing incref (ok=%v err=%v)", ok, err)
		}
	})

	// A later pass with no race sees the live binding and keeps the chunk.
	e.s.gcHookBeforeSweep = nil
	e.run(t, func(p *sim.Proc) {
		stats, err := e.s.GC(p)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ChunksDeleted != 0 || stats.StaleRefs != 0 {
			t.Errorf("second pass deleted=%d stale=%d, want 0/0", stats.ChunksDeleted, stats.StaleRefs)
		}
	})
	e.checkIntegrity(t)
}

// TestRefcountModes: the same seeded workload must keep refcounts exact in
// both decrement disciplines — strict (inline delete at zero) and
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
				gw := e.s.hostGW(anyHost(e.s))
				rc, err := gw.GetXattr(p, e.s.chunk, FingerprintID(shared), XattrRefCount)
				if err != nil || mustCount(t, rc) != objects {
					t.Fatalf("shared refcount = %d, %v (want %d)", mustCount(t, rc), err, objects)
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
				gw := e.s.hostGW(anyHost(e.s))
				rc, err := gw.GetXattr(p, e.s.chunk, FingerprintID(shared), XattrRefCount)
				if err != nil || mustCount(t, rc) != objects/2 {
					t.Fatalf("shared refcount after deletes = %d, %v (want %d)", mustCount(t, rc), err, objects/2)
				}
				// objects/2 unique chunks + 1 shared chunk must remain.
				if got := len(e.c.ListObjects(e.s.chunk)); got != objects/2+1 {
					t.Errorf("%d chunk objects remain, want %d", got, objects/2+1)
				}
			})
			e.checkIntegrity(t)
		})
	}
}

func oidFor(i int) string { return fmt.Sprintf("obj%02d", i) }
