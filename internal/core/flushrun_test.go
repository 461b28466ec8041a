package core

import (
	"bytes"
	"fmt"
	"testing"

	"dedupstore/internal/chunker"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
)

// flushReads flushes oid at its metadata primary, paced or not, and returns
// the reads the flush issued on the metadata pool and the bytes they read.
func flushReads(t *testing.T, p *sim.Proc, e *env, oid string, paced bool) (reads int, bytes int64) {
	t.Helper()
	gw, host, err := e.s.metaPrimaryGW(oid, qos.Dedup)
	if err != nil {
		t.Fatal(err)
	}
	sink := e.cl.Trace()
	before := sink.Total()
	if err := e.s.engine.flushObject(p, gw, host, oid, !paced); err != nil {
		t.Fatal(err)
	}
	n := int(sink.Total() - before)
	spans := sink.Recent(n)
	if len(spans) != n {
		t.Fatalf("trace ring kept %d of the flush's %d spans", len(spans), n)
	}
	meta := e.s.meta.Label().String()
	for _, sp := range spans {
		if sp.Name == "rados.read" && sp.Pool == meta {
			reads++
			bytes += sp.Bytes
		}
	}
	return reads, bytes
}

// TestFlushReadsEachRunOnce: a flush reads each run of adjacent dirty cached
// slots of its metadata object with one read (DESIGN.md §6.3), and nothing
// between the runs. A fully dirty 32-slot object is one read, and each slot is
// still bound to the fingerprint of its own bytes. Dirty slots {0–3, 8,
// 20–21} are three reads of seven slots' bytes. A paced flush still waits one
// turn per dirty chunk. A CDC flush reads each run of cached entries once too.
func TestFlushReadsEachRunOnce(t *testing.T) {
	const slots, chunk = 32, 4096
	e := newDedupEnv(t, nil)
	data := randData(1, slots*chunk)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
		if reads, n := flushReads(t, p, e, "obj", false); reads != 1 || n != slots*chunk {
			t.Errorf("fully dirty %d-slot object: %d metadata reads of %d bytes, want 1 of %d", slots, reads, n, slots*chunk)
		}
		cm, err := e.s.readChunkMap(p, e.cl.gw, "obj")
		if err != nil || len(cm.Entries) != slots {
			t.Fatalf("chunk map: %v, err %v", cm, err)
		}
		for i, en := range cm.Entries {
			if want := FingerprintID(data[i*chunk : (i+1)*chunk]); en.ChunkID != want || en.Dirty {
				t.Errorf("slot %d bound to %q (dirty %v), want %q", i, en.ChunkID, en.Dirty, want)
			}
		}

		// Rewrite slots {0–3, 8, 20–21}: three runs, the clean slots between
		// them flushed and evicted.
		for _, run := range [][2]int{{0, 4}, {8, 9}, {20, 22}} {
			for i := run[0]; i < run[1]; i++ {
				copy(data[i*chunk:], fmt.Sprintf("rewritten slot %d", i))
			}
			if err := e.cl.Write(p, "obj", int64(run[0]*chunk), data[run[0]*chunk:run[1]*chunk]); err != nil {
				t.Fatal(err)
			}
		}
		pacing := e.c.Metrics().Histogram("dedup_pacing_wait")
		waits := pacing.Count()
		if reads, n := flushReads(t, p, e, "obj", true); reads != 3 || n != 7*chunk {
			t.Errorf("dirty slots {0-3, 8, 20-21}: %d metadata reads of %d bytes, want 3 of %d", reads, n, 7*chunk)
		}
		if n := pacing.Count() - waits; n != 7 {
			t.Errorf("paced flush of 7 dirty chunks waited %d turns, want 7", n)
		}
		if got, err := e.cl.Read(p, "obj", 0, -1); err != nil || !bytes.Equal(got, data) {
			t.Errorf("read after the flushes: err %v, equal %v", err, bytes.Equal(got, data))
		}
	})
	e.checkScrub(t)

	// CDC: two adjacent writes, a gap, two more adjacent writes — four cached
	// entries in two runs.
	e = newDedupEnv(t, func(cfg *Config) {
		cdc := chunker.NewCDC(1<<10, 4<<10, 16<<10)
		cfg.CDC = &cdc
	})
	data = randData(2, 6*chunk)
	clear(data[2*chunk : 4*chunk])
	e.run(t, func(p *sim.Proc) {
		for _, i := range []int{0, 1, 4, 5} {
			if err := e.cl.Write(p, "cdc", int64(i*chunk), data[i*chunk:(i+1)*chunk]); err != nil {
				t.Fatal(err)
			}
		}
		if reads, n := flushReads(t, p, e, "cdc", false); reads != 2 || n != 4*chunk {
			t.Errorf("CDC object with two cached runs: %d metadata reads of %d bytes, want 2 of %d", reads, n, 4*chunk)
		}
		if got, err := e.cl.Read(p, "cdc", 0, -1); err != nil || !bytes.Equal(got, data) {
			t.Errorf("read after the CDC flush: err %v, equal %v", err, bytes.Equal(got, data))
		}
	})
	e.checkScrub(t)
}
