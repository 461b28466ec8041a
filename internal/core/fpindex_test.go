package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/fpindex"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// fpTestConfig flushes and compacts aggressively so a modest working set
// exercises WAL, SSTables, bloom filters and merges at test scale.
func fpTestConfig() fpindex.Config {
	return fpindex.Config{
		Enabled:       true,
		MemtableBytes: 512, // ~6 entries per OSD forces flushes at test scale
		BlockBytes:    256,
		CacheBytes:    4 << 10,
		BloomFP:       0.01,
		LevelFanout:   3,
	}
}

// TestFPIndexThroughDedupPath runs the full post-process dedup pipeline with
// the fingerprint index enabled on the chunk pool: foreground writes, the
// background flush creating chunk objects (index inserts), duplicate chunks
// (index hits on the existence probe), GC deletes (index tombstones). The
// index must agree with every OSD's store afterwards and the probe
// cross-check counter must be zero.
func TestFPIndexThroughDedupPath(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) {
		cfg.FPIndex = fpTestConfig()
	})
	if !e.c.FPIndexEnabled() {
		t.Fatal("Open did not enable the fingerprint index")
	}
	e.s.StartEngine()

	const objects = 30
	const objSize = 16 << 10 // 4 chunks each
	shadow := make([][]byte, objects)
	rng := rand.New(rand.NewSource(21))
	dup := bytes.Repeat([]byte{0xAB}, 4096)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < objects; i++ {
			data := make([]byte, objSize)
			rng.Read(data)
			// Half the chunks are the shared duplicate: the flush path's
			// existence probe exercises index hits.
			for c := 0; c < objSize/4096; c += 2 {
				copy(data[c*4096:], dup)
			}
			shadow[i] = data
			if err := e.cl.Write(p, fmt.Sprintf("o%d", i), 0, data); err != nil {
				t.Errorf("write o%d: %v", i, err)
			}
		}
		e.s.Engine().DrainAndWait(p)
		// Rewrite a third of the objects with fresh data, flush, GC: the old
		// chunks lose their references and are deleted — index tombstones.
		for i := 0; i < objects; i += 3 {
			data := make([]byte, objSize)
			rng.Read(data)
			shadow[i] = data
			if err := e.cl.Write(p, fmt.Sprintf("o%d", i), 0, data); err != nil {
				t.Errorf("rewrite o%d: %v", i, err)
			}
		}
		e.s.Engine().DrainAndWait(p)
		if _, err := e.s.GC(p); err != nil {
			t.Fatalf("gc: %v", err)
		}
		for i := 0; i < objects; i++ {
			got, err := e.cl.Read(p, fmt.Sprintf("o%d", i), 0, int64(objSize))
			if err != nil {
				t.Errorf("read o%d: %v", i, err)
				continue
			}
			if !bytes.Equal(got, shadow[i]) {
				t.Errorf("object o%d corrupt", i)
			}
		}
	})
	if err := e.c.FPIndexVerify(); err != nil {
		t.Fatal(err)
	}
	st := e.c.FPIndexStats()
	if st.Inserts == 0 || st.Deletes == 0 {
		t.Fatalf("dedup pipeline never drove the index: %+v", st)
	}
	if st.Lookups == 0 {
		t.Fatal("no index lookups charged on the chunk-pool metadata path")
	}
	if st.Flushes == 0 {
		t.Fatalf("memtables never flushed to SSTables: %+v", st)
	}
	e.checkScrub(t)
}

// TestFPIndexSurvivesCrashDuringFlush is the chaos variant: a chunk-pool OSD
// crashes mid-flush (losing its memtable and block cache, keeping WAL +
// SSTables) and restarts while writers and the dedup engine keep going.
// After recovery settles, every OSD's index must again match its store
// exactly — WAL replay plus restart peering reconciliation leave no lost or
// phantom fingerprints.
func TestFPIndexSurvivesCrashDuringFlush(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) {
		cfg.FalsePositiveRefs = true // crash-safe refcount mode (§4.6)
		cfg.FPIndex = fpTestConfig()
	})
	m := e.c.StartMonitor(rados.MonitorConfig{
		Interval:    50 * time.Millisecond,
		Grace:       200 * time.Millisecond,
		OutAfter:    500 * time.Millisecond,
		AutoRecover: true,
	})
	e.s.StartEngine()

	const (
		objects  = 24
		objSize  = 16 << 10
		crashed  = 9
		crashAt  = 2 * time.Millisecond
		reviveAt = 800 * time.Millisecond
	)
	e.eng.After(crashAt, func() {
		if err := e.c.CrashOSD(crashed); err != nil {
			t.Error(err)
		}
	})
	e.eng.After(reviveAt, func() {
		if err := e.c.RestartOSD(crashed); err != nil {
			t.Error(err)
		}
	})

	shadow := make([][]byte, objects)
	rng := rand.New(rand.NewSource(8))
	dup := bytes.Repeat([]byte{0xDD}, 4096)
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < objects; i++ {
			data := make([]byte, objSize)
			rng.Read(data)
			for c := 0; c < objSize/4096; c += 2 {
				copy(data[c*4096:], dup)
			}
			shadow[i] = data
			var err error
			for try := 0; try < 100; try++ {
				if err = e.cl.Write(p, fmt.Sprintf("o%d", i), 0, data); err == nil || !rados.IsUnavailable(err) {
					break
				}
				p.Sleep(20 * time.Millisecond)
			}
			if err != nil {
				t.Errorf("write o%d: %v", i, err)
			}
			p.Sleep(30 * time.Millisecond) // spread writes across the crash window
		}
		m.WaitSettled(p)
		e.s.Engine().DrainAndWait(p)
	})
	if !e.c.OSDAlive(crashed) {
		t.Fatal("crashed OSD not alive after restart")
	}
	if err := e.c.FPIndexVerify(); err != nil {
		t.Fatal(err)
	}
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < objects; i++ {
			got, err := e.cl.Read(p, fmt.Sprintf("o%d", i), 0, int64(objSize))
			if err != nil {
				t.Errorf("read o%d: %v", i, err)
				continue
			}
			if !bytes.Equal(got, shadow[i]) {
				t.Errorf("object o%d corrupt after crash/recovery", i)
			}
		}
	})
	e.checkScrub(t)
}
