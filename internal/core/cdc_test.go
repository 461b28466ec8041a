package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dedupstore/internal/chunker"
	"dedupstore/internal/sim"
)

func newCDCEnv(t *testing.T, mutate func(*Config)) *env {
	return newDedupEnv(t, func(cfg *Config) {
		cdc := chunker.NewCDC(1<<10, 4<<10, 16<<10)
		cfg.CDC = &cdc
		cfg.ChunkSize = 4096
		if mutate != nil {
			mutate(cfg)
		}
	})
}

func TestCDCRequiresPostProcess(t *testing.T) {
	eng := sim.New(1)
	c := newTestCluster(eng)
	cfg := DefaultConfig()
	cdc := chunker.NewCDC(1<<10, 4<<10, 16<<10)
	cfg.CDC = &cdc
	cfg.Mode = ModeInline
	if _, err := Open(c, cfg); err == nil {
		t.Fatal("CDC with inline mode accepted")
	}
}

func TestCDCWriteReadRoundTrip(t *testing.T) {
	e := newCDCEnv(t, nil)
	data := make([]byte, 50000)
	rand.New(rand.NewSource(1)).Read(data)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("pre-flush round trip: %v", err)
		}
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("post-flush round trip: %v", err)
		}
		// Range read across CDC boundaries.
		part, err := e.cl.Read(p, "obj", 12345, 6789)
		if err != nil || !bytes.Equal(part, data[12345:12345+6789]) {
			t.Fatalf("range read: %v", err)
		}
	})
	e.checkScrub(t)
}

func TestCDCDedupsShiftedContent(t *testing.T) {
	// The property fixed chunking cannot have: object B = prefix + object A
	// still shares most chunks with A.
	e := newCDCEnv(t, nil)
	base := make([]byte, 40000)
	rand.New(rand.NewSource(2)).Read(base)
	shifted := append([]byte("a-short-unaligned-prefix!"), base...)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "a", 0, base); err != nil {
			t.Fatal(err)
		}
		if err := e.cl.Write(p, "b", 0, shifted); err != nil {
			t.Fatal(err)
		}
	})
	e.drain(t)
	cp := e.c.PoolStats(e.s.chunk)
	logical := int64(len(base) + len(shifted))
	saved := logical - cp.LogicalBytes
	if saved < int64(len(base))/2 {
		t.Fatalf("CDC saved only %d of %d shared bytes", saved, len(base))
	}
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "b", 0, -1)
		if err != nil || !bytes.Equal(got, shifted) {
			t.Fatalf("shifted object corrupt: %v", err)
		}
	})
	e.checkScrub(t)
}

func TestCDCOverwriteAfterFlush(t *testing.T) {
	e := newCDCEnv(t, nil)
	data := make([]byte, 30000)
	rand.New(rand.NewSource(3)).Read(data)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, data) })
	e.drain(t)
	patch := []byte("OVERWRITE-ACROSS-CDC-CHUNKS")
	e.run(t, func(p *sim.Proc) {
		// Sub-range overwrite on flushed CDC entries: pre-read + span merge.
		if err := e.cl.Write(p, "obj", 9999, patch); err != nil {
			t.Fatal(err)
		}
		copy(data[9999:], patch)
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("post-overwrite read: %v", err)
		}
	})
	e.drain(t) // re-chunk
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("post-reflush read: %v", err)
		}
	})
	e.checkScrub(t)
}

func TestCDCDeleteReleasesChunks(t *testing.T) {
	e := newCDCEnv(t, nil)
	data := make([]byte, 20000)
	rand.New(rand.NewSource(4)).Read(data)
	e.run(t, func(p *sim.Proc) { e.cl.Write(p, "obj", 0, data) })
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Delete(p, "obj"); err != nil {
			t.Fatal(err)
		}
	})
	if n := len(e.c.ListObjects(e.s.chunk)); n != 0 {
		t.Fatalf("%d chunks leaked after delete", n)
	}
}

func TestCDCConcurrentWritersConverge(t *testing.T) {
	e := newCDCEnv(t, nil)
	e.s.StartEngine()
	contents := map[string][]byte{}
	rng := rand.New(rand.NewSource(5))
	e.run(t, func(p *sim.Proc) {
		var sigs []*sim.Signal
		for w := 0; w < 4; w++ {
			w := w
			cl := e.s.Client(fmt.Sprintf("c%d", w))
			sigs = append(sigs, p.Go("w", func(q *sim.Proc) {
				for i := 0; i < 5; i++ {
					oid := fmt.Sprintf("w%d-o%d", w, i)
					data := make([]byte, 8000+rng.Intn(8000))
					rng.Read(data)
					contents[oid] = data
					if err := cl.Write(q, oid, 0, data); err != nil {
						t.Error(err)
					}
				}
			}))
		}
		sim.WaitAll(p, sigs...)
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		for oid, want := range contents {
			got, err := e.cl.Read(p, oid, 0, -1)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("object %s corrupt: %v", oid, err)
			}
		}
	})
	e.checkScrub(t)
}

func TestCDCWriteRacingFlushKeepsFinal(t *testing.T) {
	e := newCDCEnv(t, nil)
	e.s.StartEngine()
	final := bytes.Repeat([]byte{0xEE}, 12000)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			data := bytes.Repeat([]byte{byte(i)}, 12000)
			if i == 9 {
				data = final
			}
			if err := e.cl.Write(p, "contended", 0, data); err != nil {
				t.Error(err)
			}
			p.Sleep(30 * 1e6) // 30ms: let the engine race
		}
	})
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		got, err := e.cl.Read(p, "contended", 0, -1)
		if err != nil || !bytes.Equal(got, final) {
			t.Errorf("lost final write under CDC: %v", err)
		}
	})
	e.checkScrub(t)
}
