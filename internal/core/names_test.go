package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// kept reports whether the name memo holds id.
func kept(e *env, id string) bool {
	_, ok := e.s.names.byID[id]
	return ok
}

// randData returns size pseudo-random bytes.
func randData(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// forgeCRC rewrites b's last 4 bytes so that b's CRC-32C is want. The
// reflected CRC register after the prefix, xor the last 4 bytes read little
// endian, goes through 32 invertible shift steps; run them backwards from
// the register want stands for.
func forgeCRC(b []byte, want uint32) {
	const poly = 0x82f63b78 // CRC-32C, reflected
	reg := ^crc32.Checksum(b[:len(b)-4], castagnoli)
	t := ^want
	for i := 0; i < 32; i++ {
		if t&0x80000000 != 0 {
			t = (t^poly)<<1 | 1
		} else {
			t <<= 1
		}
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], t^reg)
}

// writeDrain writes data to oid and flushes everything.
func writeDrain(t *testing.T, p *sim.Proc, e *env, oid string, data []byte) {
	t.Helper()
	if err := e.cl.Write(p, oid, 0, data); err != nil {
		t.Fatal(err)
	}
	e.s.Engine().DrainAndWait(p)
}

func TestNameMemo(t *testing.T) {
	plain := func(t *testing.T) *env { return newDedupEnv(t, nil) }
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *env
		run  func(t *testing.T, p *sim.Proc, e *env)
	}{
		{"hit names by SHA-256", plain, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(1, 4096)
			id := FingerprintID(data)
			writeDrain(t, p, e, "obj", data)
			if m := e.s.names.byKey[keyOf(data)]; m.id != id || !bytes.Equal(m.data, data) {
				t.Fatalf("the flush did not teach the memo %s", id)
			}
			if got := e.s.name(bytes.Clone(data)); got != id {
				t.Fatalf("hit named %s, want %s", got, id)
			}
		}},
		{"CRC collision named by its own bytes", plain, func(t *testing.T, p *sim.Proc, e *env) {
			a, b := randData(2, 4096), randData(3, 4096)
			forgeCRC(b, crc32.Checksum(a, castagnoli))
			if keyOf(a) != keyOf(b) || bytes.Equal(a, b) {
				t.Fatal("forged payload does not collide")
			}
			writeDrain(t, p, e, "a", a)
			if got, want := e.s.name(b), FingerprintID(b); got != want {
				t.Fatalf("colliding payload named %s, want %s", got, want)
			}
			writeDrain(t, p, e, "b", b)
			if got, want := entries(t, p, e, "b")[0].ChunkID, FingerprintID(b); got != want {
				t.Fatalf("flush bound %s, want %s", got, want)
			}
			if got, want := e.s.name(a), FingerprintID(a); got != want {
				t.Fatalf("first payload named %s, want %s", got, want)
			}
		}},
		{"strict release forgets, a later put learns again", plain, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(4, 4096)
			id := FingerprintID(data)
			writeDrain(t, p, e, "obj", data)
			if !kept(e, id) {
				t.Fatal("flush did not learn the chunk")
			}
			if err := e.cl.Delete(p, "obj"); err != nil {
				t.Fatal(err)
			}
			if kept(e, id) {
				t.Fatal("a chunk deleted by its last release stayed in the memo")
			}
			writeDrain(t, p, e, "obj", data)
			if !kept(e, id) {
				t.Fatal("a put of the same bytes after the delete did not learn them again")
			}
		}},
		{"strict abort forgets", plain, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(5, 4096)
			id := FingerprintID(data)
			learned := false
			e.at(atAfterIntent, func(*sim.Proc, string) bool { learned = kept(e, id); return false })
			bound, err := e.s.rebind(p, e.s.hostGW(anyHost(e.s)), "obj", transition{
				puts: []chunkPut{{pool: e.s.chunk, id: id, data: data, named: true}},
				bind: func(*ChunkMap, *store.Txn) ([]Entry, bool, error) { return nil, true, nil },
			})
			if err != nil || bound {
				t.Fatalf("raced transition: bound %v, err %v", bound, err)
			}
			if !learned {
				t.Fatal("the put did not learn the chunk it created")
			}
			if ok, _ := e.s.hostGW(anyHost(e.s)).Exists(p, e.s.chunk, id); ok {
				t.Fatal("strict abort left the chunk")
			}
			if kept(e, id) {
				t.Fatal("a chunk deleted by a strict abort stayed in the memo")
			}
		}},
		{"GC sweep forgets", func(t *testing.T) *env {
			return newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
		}, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(6, 4096)
			id := FingerprintID(data)
			writeDrain(t, p, e, "obj", data)
			if err := e.cl.Delete(p, "obj"); err != nil {
				t.Fatal(err)
			}
			if !kept(e, id) {
				t.Fatal("a release that deleted nothing dropped the name")
			}
			if st, err := e.s.GC(p); err != nil || st.ChunksDeleted != 1 {
				t.Fatalf("gc: err %v, %+v", err, st)
			}
			if kept(e, id) {
				t.Fatal("a chunk deleted by a GC sweep stayed in the memo")
			}
		}},
		{"a first scrub pass names through the memo", plain, func(t *testing.T, p *sim.Proc, e *env) {
			clean, rotten := randData(9, 4096), randData(10, 4096)
			cleanID, rottenID := FingerprintID(clean), FingerprintID(rotten)
			writeDrain(t, p, e, "clean", clean)
			writeDrain(t, p, e, "rotten", rotten)
			if !kept(e, cleanID) || !kept(e, rottenID) {
				t.Fatal("the flush did not teach the memo both chunks")
			}
			// Rot the copy the scrub reads: the primary's.
			osd, _, err := e.c.PGPrimary(e.s.chunk, e.c.PGOf(e.s.chunk, rottenID).Seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.c.CorruptForTest(osd, store.Key{Pool: e.s.chunk.ID, OID: rottenID}, 5); err != nil {
				t.Fatal(err)
			}
			rep, err := e.s.Scrub(p)
			if err != nil {
				t.Fatal(err)
			}
			want := []ScrubIssue{{OID: rottenID, Detail: "content does not match fingerprint (bit rot)"}}
			if rep.ChunkObjects != 2 || !slices.Equal(rep.Issues, want) {
				t.Fatalf("scrub checked %d chunks, issues %v; want 2 chunks and only %v", rep.ChunkObjects, rep.Issues, want)
			}
		}},
		{"nameAs: the guess is the kept array", plain, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(11, 4096)
			id := FingerprintID(data)
			writeDrain(t, p, e, "obj", data)
			m := e.s.names.byKey[keyOf(data)]
			if m.id != id {
				t.Fatalf("the flush did not teach the memo %s", id)
			}
			if got := e.s.nameAs(m.data, id); got != id {
				t.Fatalf("the kept array named %s, want %s", got, id)
			}
		}},
		{"nameAs: equal bytes in another array", plain, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(12, 4096)
			id := FingerprintID(data)
			writeDrain(t, p, e, "obj", data)
			if got := e.s.nameAs(bytes.Clone(data), id); got != id {
				t.Fatalf("equal bytes named %s, want %s", got, id)
			}
		}},
		{"nameAs: same length, other bytes", plain, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(13, 4096)
			id := FingerprintID(data)
			writeDrain(t, p, e, "obj", data)
			other := bytes.Clone(data)
			other[len(other)-1] ^= 1
			if got, want := e.s.nameAs(other, id), FingerprintID(other); got != want {
				t.Fatalf("changed bytes named %s by their guess, want %s", got, want)
			}
			if got, want := e.s.nameAs(data[:len(data)-1], id), FingerprintID(data[:len(data)-1]); got != want {
				t.Fatalf("a shorter payload named %s by its guess, want %s", got, want)
			}
		}},
		{"nameAs: a forgotten guess is not trusted", plain, func(t *testing.T, p *sim.Proc, e *env) {
			// A name that is not the bytes' own, forgotten again: were any
			// trace of it left, nameAs would answer with it.
			data := randData(14, 4096)
			const guess = "not-the-fingerprint"
			e.s.names.learn(guess, data)
			e.s.names.forget(guess)
			if got, want := e.s.nameAs(data, guess), FingerprintID(data); got != want {
				t.Fatalf("a forgotten guess named %s, want %s", got, want)
			}
		}},
		{"nameAs: a CRC-forged collider is named by its own bytes", plain, func(t *testing.T, p *sim.Proc, e *env) {
			a, b := randData(15, 4096), randData(16, 4096)
			forgeCRC(b, crc32.Checksum(a, castagnoli))
			idA := FingerprintID(a)
			writeDrain(t, p, e, "a", a)
			if !kept(e, idA) || keyOf(a) != keyOf(b) {
				t.Fatal("the memo does not keep a payload b collides with")
			}
			if got, want := e.s.nameAs(b, idA), FingerprintID(b); got != want {
				t.Fatalf("the collider named %s by a's name, want %s", got, want)
			}
		}},
		{"scrub: rot on the primary copy of a kept chunk is reported", plain, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(17, 4096)
			id := FingerprintID(data)
			writeDrain(t, p, e, "obj", data)
			primary, _, err := e.c.PGPrimary(e.s.chunk, e.c.PGOf(e.s.chunk, id).Seq)
			if err != nil {
				t.Fatal(err)
			}
			st, _ := e.c.OSDStore(primary)
			key := store.Key{Pool: e.s.chunk.ID, OID: id}
			storesKept := func() bool {
				stored, err := st.Borrow(key, 0, -1)
				if err != nil {
					t.Fatal(err)
				}
				return &stored[0] == &e.s.names.byKey[keyOf(data)].data[0]
			}
			// The primary stores the very array the memo keeps, so the first
			// pass's verdict is the identity one.
			if !storesKept() {
				t.Fatal("the primary does not store the array the memo keeps")
			}
			if rep, err := e.s.Scrub(p); err != nil || !rep.Clean() {
				t.Fatalf("clean scrub: err %v, issues %v", err, rep.Issues)
			}
			// Rot gives the primary's copy a new array; the memo keeps the
			// name and the old array, and the scrub still sees the rot.
			if err := e.c.CorruptForTest(primary, key, 5); err != nil {
				t.Fatal(err)
			}
			if !kept(e, id) || storesKept() {
				t.Fatalf("after rot: memo keeps %s %v, primary stores the kept array %v; want true, false", id, kept(e, id), storesKept())
			}
			rep, err := e.s.Scrub(p)
			want := []ScrubIssue{{OID: id, Detail: "content does not match fingerprint (bit rot)"}}
			if err != nil || !slices.Equal(rep.Issues, want) {
				t.Fatalf("scrub after rot: err %v, issues %v; want %v", err, rep.Issues, want)
			}
		}},
		{"EC put not learned", func(t *testing.T) *env {
			return newDedupEnv(t, func(cfg *Config) { cfg.ChunkRedundancy = rados.ErasureKM(2, 1) })
		}, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(7, 4096)
			writeDrain(t, p, e, "obj", data)
			if got, want := entries(t, p, e, "obj")[0].ChunkID, FingerprintID(data); got != want {
				t.Fatalf("flush bound %s, want %s", got, want)
			}
			if len(e.s.names.byKey) != 0 {
				t.Fatalf("an erasure pool's put taught the memo %d names", len(e.s.names.byKey))
			}
		}},
		{"rot is never learned", func(t *testing.T) *env { return newTierEnv(t, nil) }, func(t *testing.T, p *sim.Proc, e *env) {
			data := randData(8, 4096)
			id := FingerprintID(data)
			gw := e.s.hostGW(anyHost(e.s))
			// Two objects share the chunk, so demoting one of them leaves
			// the replicated copy, and the name, in place.
			writeDrain(t, p, e, "obj", data)
			writeDrain(t, p, e, "twin", data)
			// Rot every replica of the chunk, then demote one object's
			// binding: the migration carries the chunk's name over the
			// rotten bytes it read.
			key := store.Key{Pool: e.s.chunk.ID, OID: id}
			for _, osd := range e.c.OSDs() {
				if st, _ := e.c.OSDStore(osd); st.Exists(key) {
					if err := e.c.CorruptForTest(osd, key, 5); err != nil {
						t.Fatal(err)
					}
				}
			}
			rotten, err := gw.Read(p, e.s.chunk, id, 0, -1)
			if err != nil || bytes.Equal(rotten, data) {
				t.Fatalf("replicated read: err %v, rotten %v", err, !bytes.Equal(rotten, data))
			}
			entry := entries(t, p, e, "obj")[0]
			if bound, err := e.s.migrateChunk(p, gw, "obj", entry); err != nil || !bound {
				t.Fatalf("demotion: bound %v, err %v", bound, err)
			}
			if got, want := e.s.name(rotten), FingerprintID(rotten); got != want {
				t.Fatalf("rotten bytes named %s, want their SHA-256 %s", got, want)
			}
			writeDrain(t, p, e, "copy", rotten)
			if got, want := entries(t, p, e, "copy")[0].ChunkID, FingerprintID(rotten); got != want {
				t.Fatalf("a slot holding the rotten bytes bound %s, want their SHA-256 %s", got, want)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.open(t)
			e.run(t, func(p *sim.Proc) { tc.run(t, p, e) })
		})
	}
}
