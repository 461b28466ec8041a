package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// TestCrashDuringFlushKeepsInvariants crashes a chunk-pool OSD while the
// flush engine is deduplicating a dirty working set and foreground writers
// keep going, then restarts it. With heartbeat detection, degraded I/O and
// retries in place, nothing is lost: every write is durable and readable,
// scrub finds no inconsistencies, and GC finds the reference tables sane.
func TestCrashDuringFlushKeepsInvariants(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) {
		cfg.FalsePositiveRefs = true // crash-safe refcount mode (§4.6)
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
		objSize  = 16 << 10 // 4 chunks each
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

	// Foreground writers with a client-style retry loop; 50% duplicate
	// chunks exercise refcounting across the crash window.
	shadow := make([][]byte, objects)
	rng := rand.New(rand.NewSource(4))
	dup := bytes.Repeat([]byte{0xDD}, 4096)
	var fgErrors int
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
				fgErrors++
				t.Errorf("write o%d: %v", i, err)
			}
			p.Sleep(30 * time.Millisecond) // spread writes across the crash window
		}
		m.WaitSettled(p)
		e.s.Engine().DrainAndWait(p)
	})
	if fgErrors != 0 {
		t.Fatalf("%d foreground writes failed despite retries", fgErrors)
	}

	// The restarted OSD must be fully back in service.
	if !e.c.OSDAlive(crashed) {
		t.Fatal("crashed OSD not alive after restart")
	}

	// All contents intact, refcounts consistent, scrub clean.
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
		rep, err := e.s.Scrub(p)
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		for _, iss := range rep.Issues {
			t.Errorf("scrub issue: %s: %s", iss.OID, iss.Kind)
		}
		if _, err := e.s.GC(p); err != nil {
			t.Fatalf("gc: %v", err)
		}
		// A second GC pass after the first removed any refs orphaned by the
		// crash must find nothing left to do.
		st, err := e.s.GC(p)
		if err != nil {
			t.Fatalf("gc: %v", err)
		}
		if st.StaleRefs != 0 || st.ChunksDeleted != 0 {
			t.Errorf("second GC pass still found work: %+v", st)
		}
	})
	e.checkScrub(t)
}
