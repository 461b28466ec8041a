package core

import (
	"bytes"
	"testing"

	"dedupstore/internal/sim"
)

// A client read peeks the chunk map and reads the data a simulated instant
// later. These tests land a background mover in exactly that window (the
// benchmark's "known defect 1": zeros or half an object on cold-ec-tier and
// oltp-mixed) and require the read to notice the moved binding and re-read.

// TestReadRacesFlushEvict: the flush binds and evicts every slot between the
// peek (all slots cached) and the data reads, which then find zeros where
// the cached bytes were.
func TestReadRacesFlushEvict(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := append(mkData(0x5A, 4096), mkData(0xA5, 4096)...)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Error(err)
			return
		}
		fired := 0
		e.s.readHookAfterPeek = func(q *sim.Proc, oid string) {
			if fired++; fired == 1 {
				e.s.Engine().DrainAndWait(q)
			}
		}
		got, err := e.cl.Read(p, "obj", 0, -1)
		e.s.readHookAfterPeek = nil
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("read racing a flush: err=%v, %d bytes, zeros=%v", err, len(got), bytes.Equal(got, make([]byte, len(got))))
		}
		if fired != 2 {
			t.Errorf("data was read %d times, want 2 (one re-read of the moved slots)", fired)
		}
		for _, en := range entries(t, p, e, "obj") {
			if en.Cached || en.ChunkID == "" {
				t.Errorf("slot %d was not flushed and evicted by the hook: %+v", en.Start, en)
			}
		}
	})
}

// TestReadRacesMigration: a tier migration flips the slot's pool and
// releases the source copy (deleted inline in strict mode) between the peek
// and the redirected read, which then fails against the vanished chunk.
func TestReadRacesMigration(t *testing.T) {
	e := newTierEnv(t, nil)
	data := mkData(0x77, 4096)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Error(err)
			return
		}
		e.s.Engine().DrainAndWait(p)
		coolDown(p)
		fired := 0
		e.s.readHookAfterPeek = func(q *sim.Proc, oid string) {
			if fired++; fired > 1 {
				return
			}
			// The read itself just warmed the object; only the demotion's
			// mechanics matter here, so move the chunk directly.
			en := entries(t, q, e, "obj")[0]
			if bound, err := e.s.migrateChunk(q, e.s.hostGW(anyHost(e.s)), "obj", en, true); err != nil || !bound {
				t.Errorf("migration in the read window: bound=%v err=%v", bound, err)
			}
		}
		got, err := e.cl.Read(p, "obj", 0, -1)
		e.s.readHookAfterPeek = nil
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("read racing a migration: err=%v, %d bytes", err, len(got))
		}
		if en := entries(t, p, e, "obj")[0]; !en.Cold {
			t.Errorf("hook did not migrate the slot: %+v", en)
		}
	})
}

// TestReadIgnoresOverlappingWrite: a client write landing in the window
// moves nothing — the slot stays cached — so the read stands as it is (either
// side of the write is a correct answer) and nothing is read twice.
func TestReadIgnoresOverlappingWrite(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, mkData(1, 4096)); err != nil {
			t.Error(err)
			return
		}
		fired := 0
		e.s.readHookAfterPeek = func(q *sim.Proc, oid string) {
			fired++
			if err := e.cl.Write(q, "obj", 0, mkData(2, 4096)); err != nil {
				t.Error(err)
			}
		}
		got, err := e.cl.Read(p, "obj", 0, -1)
		e.s.readHookAfterPeek = nil
		if err != nil || !bytes.Equal(got, mkData(2, 4096)) || fired != 1 {
			t.Errorf("read overlapping a write: err=%v, data read %d times", err, fired)
		}
	})
}

// TestReadGivesUpOnAMovingMap: the re-read is bounded. A map whose bindings
// move under every try (each window sees a rewrite flushed, evicted, and the
// previous chunk deleted) fails the read instead of looping or returning
// bytes from a place they have left.
func TestReadGivesUpOnAMovingMap(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, mkData(1, 4096)); err != nil {
			t.Error(err)
			return
		}
		fired := 0
		e.s.readHookAfterPeek = func(q *sim.Proc, oid string) {
			fired++
			if err := e.cl.Write(q, "obj", 0, mkData(byte(fired+1), 4096)); err != nil {
				t.Error(err)
			}
			e.s.Engine().DrainAndWait(q)
		}
		_, err := e.cl.Read(p, "obj", 0, -1)
		e.s.readHookAfterPeek = nil
		if err == nil || fired != readTries {
			t.Errorf("read under a map that never settles: err=%v after %d tries, want an error after %d", err, fired, readTries)
		}
	})
}
