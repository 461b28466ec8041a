package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// chunkState reads one chunk object's reference state.
func chunkState(t *testing.T, p *sim.Proc, e *env, pool *rados.Pool, id string) chunkSnapshot {
	t.Helper()
	var snap chunkSnapshot
	if err := snapshotChunk(p, e.s.hostGW(anyHost(e.s)), pool, id, &snap); err != nil {
		t.Fatalf("snapshot %s: %v", id, err)
	}
	return snap
}

// TestRebindTable drives the transition primitive directly over
// {0,1,N puts} × {raced, bind error, clean} × {strict, false-positive} and
// checks what each outcome leaves on the chunk objects: a bind that raced or
// failed leaves no intent and no reference behind (strict mode deletes the
// never-referenced chunk, false-positive mode leaves it to GC); a clean bind
// leaves every put committed and counted, every intent gone, and the
// replaced chunk released. The zero-put callers follow (zeroPutCallerRows).
func TestRebindTable(t *testing.T) {
	errBoom := errors.New("bind failed")
	for _, strict := range []bool{true, false} {
		for _, nPuts := range []int{0, 1, 3} {
			for _, outcome := range []string{"raced", "error", "clean"} {
				t.Run(fmt.Sprintf("strict=%v/puts=%d/%s", strict, nPuts, outcome), func(t *testing.T) {
					e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = !strict })
					old := mkData(0xA0, 4096)
					e.run(t, func(p *sim.Proc) {
						if err := e.cl.Write(p, "obj", 0, old); err != nil {
							t.Fatal(err)
						}
						e.s.Engine().DrainAndWait(p)
					})
					e.run(t, func(p *sim.Proc) {
						before := entries(t, p, e, "obj")
						var puts []chunkPut
						var next []Entry
						for i := 0; i < nPuts; i++ {
							data := mkData(byte(i+1), 4096)
							off := int64(i) * 4096
							puts = append(puts, chunkPut{pool: e.s.chunk, id: FingerprintID(data), data: data, off: off})
							next = append(next, Entry{Start: off, End: off + 4096, ChunkID: FingerprintID(data)})
						}
						if nPuts == 0 { // release-only: unbind the slot, keep its bytes cached
							next = []Entry{{Start: 0, End: 4096, Cached: true}}
						}
						bound, err := e.s.rebind(p, e.s.hostGW(anyHost(e.s)), "obj", transition{
							puts: puts,
							bind: func(cur *ChunkMap, txn *store.Txn) ([]Entry, bool, error) {
								switch outcome {
								case "raced":
									return nil, true, nil
								case "error":
									return nil, false, errBoom
								}
								unbound := cur.Entries
								cur.Entries = next
								return unbound, false, nil
							},
						})
						clean := outcome == "clean"
						if bound != clean {
							t.Errorf("bound = %v, want %v", bound, clean)
						}
						if wantErr := outcome == "error"; (err != nil) != wantErr || (wantErr && !errors.Is(err, errBoom)) {
							t.Errorf("err = %v", err)
						}

						after := entries(t, p, e, "obj")
						want := before
						if clean {
							want = next
						}
						if fmt.Sprint(after) != fmt.Sprint(want) {
							t.Errorf("chunk map = %v, want %v", after, want)
						}
						for _, put := range puts {
							st := chunkState(t, p, e, put.pool, put.id)
							switch {
							case len(st.intents) != 0:
								t.Errorf("put %s: %d intents left behind", put.id[:10], len(st.intents))
							case clean && (!st.exists || st.count != 1 || len(st.refs) != 1):
								t.Errorf("put %s: exists=%v count=%d refs=%d, want one counted reference", put.id[:10], st.exists, st.count, len(st.refs))
							case !clean && strict && st.exists:
								t.Errorf("put %s: aborted chunk not deleted inline in strict mode", put.id[:10])
							case !clean && !strict && (!st.exists || st.count != 0 || len(st.refs) != 0):
								t.Errorf("put %s: exists=%v count=%d refs=%d, want an unreferenced chunk left to GC", put.id[:10], st.exists, st.count, len(st.refs))
							}
						}
						st := chunkState(t, p, e, e.s.chunk, FingerprintID(old))
						switch {
						case !clean && (!st.exists || st.count != 1 || len(st.refs) != 1):
							t.Errorf("replaced chunk touched by an unbound transition: %+v", st)
						case clean && strict && st.exists:
							t.Error("replaced chunk not deleted inline in strict mode")
						case clean && !strict && (!st.exists || st.count != 0 || len(st.refs) != 0):
							t.Errorf("replaced chunk: exists=%v count=%d refs=%d, want released and left to GC", st.exists, st.count, len(st.refs))
						}
					})
				})
			}
		}
	}
	zeroPutCallerRows(t)
}

// mapBytes returns oid's chunk-map xattr exactly as an OSD stores it: a map
// that was rewritten, even to the same content, is a new slice.
func mapBytes(t *testing.T, e *env, oid string) []byte {
	t.Helper()
	for _, osd := range e.c.OSDs() {
		if st, ok := e.c.OSDStore(osd); ok {
			if raw, err := st.GetXattr(store.Key{Pool: e.s.meta.ID, OID: oid}, XattrChunkMap); err == nil {
				return raw
			}
		}
	}
	t.Fatalf("no chunk map stored for %s", oid)
	return nil
}

// zeroPutCallerRows are TestRebindTable's rows for the callers that pin
// nothing — the client write, cold eviction, re-dedup — run through the
// transition they describe, each with work to do and (where it can happen)
// without. With work, the bind fires once and edits the map; without, the
// transition reports raced and writes nothing: the stored map is the very
// slice it was. Neither touches a chunk object or fires the intent hook.
func zeroPutCallerRows(t *testing.T) {
	const (
		flushed = "flushed" // clean, bound, evicted
		cached  = "cached"  // clean, bound, still cached (flushed while hot)
		hotForm = "hotform" // clean, cached, unbound (recached)
	)
	rows := []struct {
		caller string
		from   string
		want   func(en Entry) bool // every slot afterwards; nil = nothing to do
	}{
		{"write", flushed, func(en Entry) bool { return en.Dirty && en.Cached && en.Gen == 2 }},
		{"evict", cached, func(en Entry) bool { return !en.Cached && !en.Dirty && en.ChunkID != "" }},
		{"evict", flushed, nil},
		{"rededup", hotForm, func(en Entry) bool { return en.Dirty && en.Cached && en.ChunkID == "" }},
		{"rededup", flushed, nil},
	}
	data := distinctSlots(31, 3)
	for _, strict := range []bool{true, false} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("strict=%v/%s/%s", strict, row.caller, row.from), func(t *testing.T) {
				e := newTierEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = !strict })
				e.run(t, func(p *sim.Proc) {
					gw := e.s.hostGWClass(anyHost(e.s), qos.Tiering)
					if row.from != flushed {
						heat(p, e, "obj") // hot at flush time: the flush keeps the bytes cached
					}
					if err := e.cl.Write(p, "obj", 0, data); err != nil {
						t.Fatal(err)
					}
					e.s.Engine().DrainAndWait(p)
					var ps TierStats
					if row.from == hotForm {
						if err := e.s.recacheObject(p, gw, "obj", &ChunkMap{Entries: entries(t, p, e, "obj")}, &ps); err != nil {
							t.Fatal(err)
						}
					}
					chunks := func() string {
						var out []string
						for _, id := range e.c.ListObjects(e.s.chunk) {
							out = append(out, fmt.Sprintf("%s %+v", id[:10], chunkState(t, p, e, e.s.chunk, id)))
						}
						return fmt.Sprint(out)
					}
					chunksBefore, rawBefore := chunks(), mapBytes(t, e, "obj")
					binds := 0
					e.s.hooks.afterIntent = func(string) bool { t.Error("intent hook fired for a transition with no puts"); return false }
					e.s.hooks.afterBind = func(oid string) bool { binds++; return false }
					var err error
					switch row.caller {
					case "write":
						err = e.cl.Write(p, "obj", 0, data)
					case "evict":
						err = e.s.evictObject(p, gw, "obj", &ps)
					case "rededup":
						err = e.s.rededupObject(p, gw, "obj", &ps)
					}
					e.s.hooks = rebindHooks{}
					if err != nil {
						t.Fatal(err)
					}
					if got := chunks(); got != chunksBefore {
						t.Errorf("chunk objects changed:\n%s\n%s", chunksBefore, got)
					}
					rawAfter := mapBytes(t, e, "obj")
					if row.want == nil {
						if binds != 0 || &rawAfter[0] != &rawBefore[0] || ps != (TierStats{}) {
							t.Errorf("nothing to do, yet binds=%d, map rewritten=%v, stats %+v", binds, &rawAfter[0] != &rawBefore[0], ps)
						}
						return
					}
					if binds != 1 {
						t.Errorf("bind hook fired %d times, want 1", binds)
					}
					for _, en := range entries(t, p, e, "obj") {
						if !row.want(en) {
							t.Errorf("slot %d left as %+v", en.Start, en)
						}
					}
				})
			})
		}
	}
}

// poolIntents returns the lease expiry of every intent recorded in the warm
// chunk pool.
func poolIntents(t *testing.T, p *sim.Proc, e *env) (expiries []sim.Time) {
	t.Helper()
	for _, id := range e.c.ListObjects(e.s.chunk) {
		for _, exp := range chunkState(t, p, e, e.s.chunk, id).intents {
			expiries = append(expiries, exp)
		}
	}
	return expiries
}

// TestFlushKillWindows kills a transition — a static flush, a CDC flush, a
// snapshot, an inline write — inside each window, as a crash that takes its
// caller with it, and lets the reconcilers finish the job once the lease has
// run out. The whole change is one transition, so the kill leaves N intents
// behind (one per slot, except under CDC). Killed after its intents: nothing
// ever binds the pinned chunks (a newer write supersedes a killed flush) and
// GC aborts all N expired intents. Killed after its bind: the audit promotes
// all N under the surviving bindings, and GC sweeps the stale references on
// the chunks the bind replaced. Either way — strict or false-positive — the
// store ends with zero stale references, zero lost chunks and the bytes
// intact. The hooks fire for every transition on the object, client writes
// included, so they are armed around the victim only and keyed on its oid.
func TestFlushKillWindows(t *testing.T) {
	version := func(seed int64) []byte {
		data := make([]byte, 40000)
		rand.New(rand.NewSource(seed)).Read(data)
		return data
	}
	v1, v2, v3 := version(7), version(8), version(9)
	inline := func(cfg *Config) { cfg.Mode = ModeInline }
	flush := func(p *sim.Proc, e *env) error {
		gw, host, err := e.s.metaPrimaryGW("obj", qos.Dedup)
		if err != nil {
			return err
		}
		return e.s.engine.flushObject(p, gw, host, "obj", true)
	}
	// Every victim starts from "obj" holding v1, flushed (inline: bound).
	victims := []struct {
		name     string
		newEnv   func(*testing.T, func(*Config)) *env
		mode     func(*Config)
		oid      string // the object whose transition dies
		flush    bool   // the victim is a flush of v2, already written
		op       func(p *sim.Proc, e *env) error
		replaces bool   // its bind replaces counted bindings
		survivor []byte // what oid holds when the bind survived
	}{
		{name: "static", newEnv: newDedupEnv, oid: "obj", flush: true, op: flush, replaces: true, survivor: v2},
		// (A CDC write releases the chunks it swallows up front, so a CDC
		// bind has nothing left to orphan.)
		{name: "cdc", newEnv: newCDCEnv, oid: "obj", flush: true, op: flush, survivor: v2},
		{name: "snapshot", newEnv: newDedupEnv, oid: "obj@s", survivor: v1,
			op: func(p *sim.Proc, e *env) error { return e.cl.Snapshot(p, "obj", "obj@s") }},
		{name: "inline", newEnv: newDedupEnv, mode: inline, oid: "obj", replaces: true, survivor: v2,
			op: func(p *sim.Proc, e *env) error { return e.cl.Write(p, "obj", 0, v2) }},
	}
	for _, v := range victims {
		for _, refs := range []string{"", "-strict"} { // "" is the false-positive mode
			for _, window := range []string{"afterIntent", "afterBind"} {
				t.Run(v.name+refs+"/"+window, func(t *testing.T) {
					e := v.newEnv(t, func(cfg *Config) {
						cfg.FalsePositiveRefs = refs == ""
						if v.mode != nil {
							v.mode(cfg)
						}
					})
					e.run(t, func(p *sim.Proc) {
						if err := e.cl.Write(p, "obj", 0, v1); err != nil {
							t.Fatal(err)
						}
						e.s.Engine().DrainAndWait(p)
						if v.flush {
							if err := e.cl.Write(p, "obj", 0, v2); err != nil {
								t.Fatal(err)
							}
						}
						kill := func(oid string) bool { return oid == v.oid }
						if window == "afterIntent" {
							e.s.hooks.afterIntent = kill
						} else {
							e.s.hooks.afterBind = kill
						}
						// A flush swallows the crash and requeues; a client op returns it.
						err := v.op(p, e)
						if died := !v.flush; (err != nil) != died || (died && !errors.Is(err, errCrash)) {
							t.Fatalf("victim returned %v", err)
						}
						e.s.hooks = rebindHooks{}
						orphans := int64(len(poolIntents(t, p, e)))
						if slots := int64(len(entries(t, p, e, "obj"))); v.name != "cdc" && orphans != slots {
							t.Fatalf("kill %s left %d intents, want one per slot (%d)", window, orphans, slots)
						}
						want := map[string][]byte{"obj": v1}
						if window == "afterBind" {
							want[v.oid] = v.survivor
						} else if v.oid != "obj" {
							want[v.oid] = nil // never created
						}
						if v.flush {
							dirty := 0
							for _, en := range entries(t, p, e, "obj") {
								if en.Dirty {
									dirty++
								}
							}
							if bound := dirty == 0; bound != (window == "afterBind") {
								t.Fatalf("%d dirty slots after a kill %s", dirty, window)
							}
							if window == "afterIntent" {
								// While the slots stay dirty GC keeps any reference to
								// them (they may be mid-flush); supersede the flush so
								// its intents are plainly orphans.
								want["obj"] = v3
								if err := e.cl.Write(p, "obj", 0, v3); err != nil {
									t.Fatal(err)
								}
								e.s.Engine().DrainAndWait(p)
							}
						}

						p.Sleep(intentLease + time.Second)
						audit, err := e.s.Audit(p)
						if err != nil {
							t.Fatal(err)
						}
						if rep, err := e.s.Scrub(p); err != nil || !rep.Clean() {
							t.Fatalf("scrub: err=%v issues=%v", err, rep.Issues)
						}
						gc1, err := e.s.GC(p)
						if err != nil {
							t.Fatal(err)
						}
						switch {
						case audit.LostChunks != 0:
							t.Errorf("audit lost %d chunks", audit.LostChunks)
						case window == "afterIntent" && (gc1.IntentsAborted != orphans || audit.IntentsPromoted != 0):
							t.Errorf("%d orphan intents not all aborted: gc %+v, audit %+v", orphans, gc1, audit)
						case window == "afterBind" && audit.IntentsPromoted != orphans:
							t.Errorf("%d orphan bindings not all promoted: audit %+v", orphans, audit)
						case window == "afterBind" && v.replaces && gc1.StaleRefs == 0:
							t.Errorf("replaced chunks' stale references not swept: gc %+v", gc1)
						}
						if gc2, err := e.s.GC(p); err != nil || gc2.StaleRefs != 0 || gc2.IntentsAborted != 0 || gc2.IntentsPromoted != 0 {
							t.Errorf("second GC still found work: err=%v %+v", err, gc2)
						}
						for oid, data := range want {
							got, err := e.cl.Read(p, oid, 0, -1)
							if data == nil {
								if !errors.Is(err, ErrNotFound) {
									t.Errorf("%s exists after a kill before its bind: %d bytes, err=%v", oid, len(got), err)
								}
							} else if err != nil || !bytes.Equal(got, data) {
								t.Errorf("read-back of %s after recovery: %v", oid, err)
							}
						}
						checkClean(t, p, e)
					})
					e.checkIntegrity(t)
				})
			}
		}
	}
	t.Run("snapshot-race", func(t *testing.T) { snapshotRace(t, true) })
	t.Run("snapshot-race-strict", func(t *testing.T) { snapshotRace(t, false) })
}

// snapshotRace is TestFlushKillWindows' row with no kill in it: two snapshots,
// of sources that share their first chunk, race for one target. Both pin that
// chunk under the same (target, offset) intent key; the bind, under the
// target's PG lock, lets exactly one in, and the loser's inline abort must not
// cost the winner its reference.
func snapshotRace(t *testing.T, fp bool) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = fp })
	shared := mkData(0x10, 4096)
	data := map[string][]byte{"a": append(bytes.Clone(shared), mkData(0x0A, 4096)...), "b": append(bytes.Clone(shared), mkData(0x0B, 4096)...)}
	e.run(t, func(p *sim.Proc) {
		for oid, d := range data {
			if err := e.cl.Write(p, oid, 0, d); err != nil {
				t.Fatal(err)
			}
		}
		e.s.Engine().DrainAndWait(p)
		errs := map[string]error{}
		var sigs []*sim.Signal
		for _, src := range []string{"a", "b"} {
			sigs = append(sigs, p.Go("snap-"+src, func(q *sim.Proc) { errs[src] = e.cl.Snapshot(q, src, "target") }))
		}
		sim.WaitAll(p, sigs...)
		winner, loser := "a", "b"
		if errs["a"] != nil {
			winner, loser = loser, winner
		}
		if errs[winner] != nil || errs[loser] == nil {
			t.Fatalf("want exactly one winner: a=%v b=%v", errs["a"], errs["b"])
		}
		if got, err := e.cl.Read(p, "target", 0, -1); err != nil || !bytes.Equal(got, data[winner]) {
			t.Errorf("target does not read as the winner %q: %v", winner, err)
		}
		for id, want := range map[string]uint64{
			FingerprintID(shared):              3, // a, b, target
			FingerprintID(data[winner][4096:]): 2,
			FingerprintID(data[loser][4096:]):  1,
		} {
			if st := chunkState(t, p, e, e.s.chunk, id); st.count != want || uint64(len(st.refs)) != want || len(st.intents) != 0 {
				t.Errorf("chunk %s: count=%d refs=%d intents=%d, want %d counted references", id[:10], st.count, len(st.refs), len(st.intents), want)
			}
		}
		checkClean(t, p, e)
	})
	e.checkIntegrity(t)
}

// distinctSlots returns n 4 KiB slots of different content.
func distinctSlots(seed int64, n int) []byte {
	data := make([]byte, n*4096)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestFlushPartialBind: a client write lands on one slot between the flush's
// prepare phase and its bind. That slot stays dirty with the writer's Gen, its
// intent is aborted — in strict mode the chunk nobody else references is
// deleted inline — every other slot binds, only they count as flushed, and the
// object goes back on the dirty list.
func TestFlushPartialBind(t *testing.T) {
	const slots, hit = 8, 3
	for _, strict := range []bool{true, false} {
		t.Run(fmt.Sprintf("strict=%v", strict), func(t *testing.T) {
			e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = !strict })
			v1, patch := distinctSlots(21, slots), distinctSlots(22, 1)
			want := bytes.Clone(v1)
			copy(want[hit*4096:], patch)
			e.run(t, func(p *sim.Proc) {
				if err := e.cl.Write(p, "obj", 0, v1); err != nil {
					t.Fatal(err)
				}
				p.Sleep(time.Millisecond) // let the dirty-log append land
				e.s.hooks.afterIntent = func(string) bool {
					if got := len(poolIntents(t, p, e)); got != slots {
						t.Errorf("%d intents before the bind, want %d", got, slots)
					}
					sim.WaitAll(p, p.Go("racer", func(q *sim.Proc) {
						if err := e.cl.Write(q, "obj", hit*4096, patch); err != nil {
							t.Error(err)
						}
					}))
					return false // no crash: the bind sees the rewritten slot
				}
				gw, host, err := e.s.metaPrimaryGW("obj", qos.Dedup)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.s.engine.flushObject(p, gw, host, "obj", true); err != nil {
					t.Fatal(err)
				}
				e.s.hooks = rebindHooks{}
				for i, en := range entries(t, p, e, "obj") {
					id := FingerprintID(v1[i*4096 : (i+1)*4096])
					st := chunkState(t, p, e, e.s.chunk, id)
					switch {
					case len(st.intents) != 0:
						t.Errorf("slot %d: %d intents left behind", i, len(st.intents))
					case i == hit && (!en.Dirty || !en.Cached || en.Gen != 2 || en.ChunkID != ""):
						t.Errorf("raced slot = %+v, want dirty, cached, Gen 2, unbound", en)
					case i == hit && strict && st.exists:
						t.Error("raced slot: aborted chunk not deleted inline in strict mode")
					case i == hit && !strict && (!st.exists || st.count != 0 || len(st.refs) != 0):
						t.Errorf("raced slot: chunk %+v, want unreferenced and left to GC", st)
					case i != hit && (en.Dirty || en.ChunkID != id || st.count != 1 || len(st.refs) != 1):
						t.Errorf("slot %d = %+v with chunk %+v, want bound with one counted reference", i, en, st)
					}
				}
				st := e.s.engine.Stats()
				if st.ChunksFlushed != slots-1 || st.BytesFlushed != (slots-1)*4096 || st.Requeued != 1 {
					t.Errorf("stats %+v: want %d chunks flushed and one requeue", st, slots-1)
				}
				if listed, err := gw.OmapList(p, e.s.meta, e.s.dirtyListOID("obj"), 0); err != nil || len(listed) != 1 {
					t.Errorf("dirty list = %v, err %v: the object must be requeued", listed, err)
				}
				e.s.Engine().DrainAndWait(p)
				if got, err := e.cl.Read(p, "obj", 0, -1); err != nil || !bytes.Equal(got, want) {
					t.Errorf("read-back: %v", err)
				}
				checkClean(t, p, e)
			})
			e.checkIntegrity(t)
		})
	}
}

// TestFlushEqualSlots: two slots of one object hold the same bytes. Their
// puts name one chunk, so they serialise on its PG lock: one creates it, the
// other finds it there, and the chunk ends with two counted references.
func TestFlushEqualSlots(t *testing.T) {
	e := newDedupEnv(t, nil)
	twin, other := mkData(0x77, 4096), mkData(0x78, 4096)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, append(append(bytes.Clone(twin), other...), twin...)); err != nil {
			t.Fatal(err)
		}
		e.s.Engine().DrainAndWait(p)
		st := chunkState(t, p, e, e.s.chunk, FingerprintID(twin))
		if !st.exists || st.count != 2 || len(st.refs) != 2 || len(st.intents) != 0 {
			t.Errorf("shared chunk %+v, want two counted references", st)
		}
		if es := e.s.engine.Stats(); es.ChunksFlushed != 3 || es.DupChunks != 1 || e.c.PoolStats(e.s.chunk).Objects != 2 {
			t.Errorf("stats %+v, %d chunk objects: want 3 flushed, 1 duplicate, 2 objects", es, e.c.PoolStats(e.s.chunk).Objects)
		}
		checkClean(t, p, e)
	})
	e.checkIntegrity(t)
}

// TestFlushPacedPastLease: rate control holds the flush to one chunk per
// 100 ms, so preparing a 32-slot object takes longer than intentLease, while
// audit and GC passes run against it throughout. Intents are recorded only
// once every slot is prepared, so at bind time none is older than one
// fan-out wave, and the reconcilers never find one to promote, abort or
// repair.
func TestFlushPacedPastLease(t *testing.T) {
	const slots = 32
	e := newDedupEnv(t, func(cfg *Config) { cfg.FalsePositiveRefs = true })
	data := distinctSlots(23, slots)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Millisecond)
		e.c.QoS().SetLimit(qos.Dedup, 100*time.Millisecond)
		flushing := true
		reconcilers := p.Go("reconcile", func(q *sim.Proc) {
			for flushing {
				audit, err := e.s.Audit(q)
				if err != nil || !audit.Clean() {
					t.Errorf("audit during the flush: err=%v %+v", err, audit)
				}
				gc, err := e.s.GC(q)
				if err != nil || gc.IntentsAborted+gc.IntentsPromoted+gc.StaleRefs+gc.ChunksDeleted != 0 {
					t.Errorf("gc during the flush: err=%v %+v", err, gc)
				}
				q.Sleep(50 * time.Millisecond)
			}
		})
		start := p.Now()
		e.s.hooks.afterIntent = func(string) bool {
			if took := (p.Now() - start).Duration(); took <= intentLease {
				t.Errorf("prepare took %v: the test no longer paces past the %v lease", took, intentLease)
			}
			expiries := poolIntents(t, p, e)
			for _, exp := range expiries {
				if age := sim.Time(intentLease) - (exp - p.Now()); age.Duration() > 50*time.Millisecond {
					t.Errorf("an intent is %v old at bind time, want under one wave", age)
				}
			}
			if len(expiries) != slots {
				t.Errorf("%d intents at bind time, want %d", len(expiries), slots)
			}
			return false
		}
		gw, host, err := e.s.metaPrimaryGW("obj", qos.Dedup)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.s.engine.flushObject(p, gw, host, "obj", false); err != nil {
			t.Fatal(err)
		}
		e.s.hooks = rebindHooks{}
		flushing = false
		sim.WaitAll(p, reconcilers)
		e.c.QoS().SetLimit(qos.Dedup, 0)
		for _, en := range entries(t, p, e, "obj") {
			if en.Dirty || en.ChunkID == "" {
				t.Errorf("slot %d not flushed: %+v", en.Start, en)
			}
		}
		if got, err := e.cl.Read(p, "obj", 0, -1); err != nil || !bytes.Equal(got, data) {
			t.Errorf("read-back: %v", err)
		}
		checkClean(t, p, e)
	})
	e.checkIntegrity(t)
}

// disjointOID returns an object ID whose metadata PG shares no OSD with its
// dirty list's PG, plus the acting OSDs of the former — so a test can take
// the object's chunk map offline while its dirty list stays writable.
func disjointOID(t *testing.T, e *env) (string, []int) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		oid := fmt.Sprintf("obj-%d", i)
		if mine := actingOSDs(e, e.s.meta, oid); disjoint(mine, actingOSDs(e, e.s.meta, e.s.dirtyListOID(oid))) {
			return oid, mine
		}
	}
	t.Fatal("no object with a disjoint dirty-list PG")
	return "", nil
}

// TestFlushUnreachableIsNotDeleted: a flush that has claimed its object off
// the dirty list and then cannot reach the chunk map (every replica's OSD is
// down, undetected) must put the object back — only ErrNotFound means
// "deleted meanwhile". The CDC fork used to drop it, stranding dirty data no
// sweep revisits.
func TestFlushUnreachableIsNotDeleted(t *testing.T) {
	for _, mode := range []string{"static", "cdc"} {
		t.Run(mode, func(t *testing.T) {
			newEnv := newDedupEnv
			if mode == "cdc" {
				newEnv = newCDCEnv
			}
			e := newEnv(t, nil)
			oid, osds := disjointOID(t, e)
			data := make([]byte, 20000)
			rand.New(rand.NewSource(3)).Read(data)
			e.run(t, func(p *sim.Proc) {
				if err := e.cl.Write(p, oid, 0, data); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(time.Millisecond) // let the dirty-log append land
				for _, id := range osds {
					if err := e.c.CrashOSD(id); err != nil {
						t.Error(err)
						return
					}
				}
				gw, host, err := e.s.metaPrimaryGW(oid, qos.Dedup)
				if err != nil {
					t.Error(err)
					return
				}
				if err := e.s.engine.flushObject(p, gw, host, oid, true); err != nil {
					t.Error(err)
					return
				}
				listed, err := e.s.hostGW(anyHost(e.s)).OmapList(p, e.s.meta, e.s.dirtyListOID(oid), 0)
				if err != nil {
					t.Error(err)
					return
				}
				if len(listed) != 1 || listed[0] != oid {
					t.Errorf("dirty list after an unreachable flush = %v, want [%s]", listed, oid)
					return
				}
				for _, id := range osds {
					if err := e.c.RestartOSD(id); err != nil {
						t.Error(err)
						return
					}
				}
				e.s.Engine().DrainAndWait(p)
				for _, en := range entries(t, p, e, oid) {
					if en.Dirty || en.ChunkID == "" {
						t.Errorf("slot %d still unflushed after the outage: %+v", en.Start, en)
					}
				}
				if got, err := e.cl.Read(p, oid, 0, -1); err != nil || !bytes.Equal(got, data) {
					t.Errorf("read-back after the outage: %v", err)
				}
			})
			e.checkIntegrity(t)
		})
	}
}

// TestInlineWriteUnreachableMapIsNotEmpty: an inline write whose chunk-map
// read hits an outage must not treat the object as new. The old code ignored
// the read error and — when the OSDs came back before its map write — wrote
// back a map holding only this write's slot, unbinding the rest of the
// object.
func TestInlineWriteUnreachableMapIsNotEmpty(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.Mode = ModeInline })
	oid, osds := disjointOID(t, e)
	want := append(mkData(0x0B, 4096), mkData(0x02, 4096)...)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, oid, 0, append(mkData(0x01, 4096), mkData(0x02, 4096)...)); err != nil {
			t.Error(err)
			return
		}
		for _, id := range osds {
			if err := e.c.CrashOSD(id); err != nil {
				t.Error(err)
				return
			}
		}
		// The OSDs return just after the write's first chunk-map read has
		// timed out against them.
		e.eng.After(e.c.RequestTimeout()+time.Microsecond, func() {
			for _, id := range osds {
				if err := e.c.RestartOSD(id); err != nil {
					t.Error(err)
				}
			}
		})
		if err := e.cl.Write(p, oid, 0, mkData(0x0B, 4096)); err != nil {
			t.Errorf("write across the outage: %v", err)
			return
		}
		got, err := e.cl.Read(p, oid, 0, -1)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("object after the write: %d bytes, err=%v; the untouched chunk must survive", len(got), err)
		}
	})
	e.checkIntegrity(t)
}
