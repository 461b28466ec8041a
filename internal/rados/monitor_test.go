package rados

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// primaryID returns the acting primary for oid in pool.
func (e *testEnv) primaryID(pool *Pool, oid string) int {
	return e.c.acting(pool, e.c.PGOf(pool, oid))[0].id
}

// runMon is testEnv.run for tests with a monitor attached: the monitor's
// daemon process stays parked when the simulation drains, so exactly one
// live process is expected to remain.
func (e *testEnv) runMon(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	var procErr error
	e.eng.Go("test", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				procErr = fmt.Errorf("panic: %v", r)
			}
		}()
		fn(p)
	})
	if left := e.eng.Run(); left != 1 {
		t.Fatalf("%d processes left, want 1 (the monitor daemon)", left)
	}
	if procErr != nil {
		t.Fatal(procErr)
	}
}

func monCfg() MonitorConfig {
	return MonitorConfig{
		Interval:    100 * time.Millisecond,
		Grace:       500 * time.Millisecond,
		OutAfter:    time.Second,
		AutoRecover: true,
	}
}

// TestMonitorDetectsAfterGrace walks the full failure timeline: a crash is
// invisible until the heartbeat grace expires (not instant), then the OSD is
// marked down, then out, then recovery restores full redundancy.
func TestMonitorDetectsAfterGrace(t *testing.T) {
	e := newEnv(t)
	m := e.c.StartMonitor(monCfg())
	data := bytes.Repeat([]byte{0xAB}, 4096)
	var primary int
	var tCrash sim.Time
	e.runMon(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "obj", data); err != nil {
			e.fail(err)
		}
		primary = e.primaryID(e.rep, "obj")
		if err := e.c.CrashOSD(primary); err != nil {
			e.fail(err)
		}
		tCrash = p.Now()

		// Well inside the grace period: the map must not have reacted yet.
		p.Sleep(300 * time.Millisecond)
		if info, _ := e.c.cmap.Lookup(primary); !info.Up {
			t.Error("osd marked down 300ms after crash, before 500ms grace")
		}

		// Past grace (+ one tick of slack): marked down but still in.
		p.Sleep(400 * time.Millisecond)
		if info, _ := e.c.cmap.Lookup(primary); info.Up {
			t.Error("osd still up 700ms after crash, grace is 500ms")
		} else if !info.In {
			t.Error("osd already out 700ms after crash, out-after is 1s")
		}

		m.WaitSettled(p)
		if info, _ := e.c.cmap.Lookup(primary); info.Up || info.In {
			t.Error("dead osd still up/in after settling")
		}

		// Foreground I/O is fully available again: the old primary is out,
		// reads and writes land on the survivors without errors.
		got, err := e.gw.Read(p, e.rep, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("read after recovery: err=%v", err)
		}
		if err := e.gw.WriteFull(p, e.rep, "obj", data); err != nil {
			t.Errorf("write after recovery: %v", err)
		}
	})

	var down, out, recovered *MonEvent
	for _, ev := range m.Events() {
		ev := ev
		switch {
		case ev.Kind == "down" && ev.OSD == primary && down == nil:
			down = &ev
		case ev.Kind == "out" && ev.OSD == primary && out == nil:
			out = &ev
		case ev.Kind == "recovered":
			recovered = &ev
		}
	}
	if down == nil || out == nil || recovered == nil {
		t.Fatalf("timeline incomplete (down=%v out=%v recovered=%v): %v", down, out, recovered, m.Events())
	}
	cfg := m.Config()
	lat := (down.At - tCrash).Duration()
	if lat < cfg.Grace-cfg.Interval || lat > cfg.Grace+2*cfg.Interval {
		t.Errorf("detection latency %v outside [grace-interval, grace+2*interval] around %v", lat, cfg.Grace)
	}
	if (out.At - down.At).Duration() < cfg.OutAfter {
		t.Errorf("marked out %v after down, want >= %v", (out.At - down.At).Duration(), cfg.OutAfter)
	}
	if e.c.Metrics().Counter("mon_marked_down_total").Value() != 1 {
		t.Error("mon_marked_down_total != 1")
	}
}

// TestMonitorRejoinBeforeGrace: a blip shorter than the grace period never
// touches the map.
func TestMonitorRejoinBeforeGrace(t *testing.T) {
	e := newEnv(t)
	m := e.c.StartMonitor(monCfg())
	e.runMon(t, func(p *sim.Proc) {
		if err := e.c.CrashOSD(5); err != nil {
			e.fail(err)
		}
		p.Sleep(200 * time.Millisecond) // < 500ms grace
		if err := e.c.RestartOSD(5); err != nil {
			e.fail(err)
		}
		m.WaitSettled(p)
	})
	for _, ev := range m.Events() {
		if ev.Kind == "down" || ev.Kind == "out" {
			t.Errorf("short blip caused map change: %v", ev)
		}
	}
	if info, _ := e.c.cmap.Lookup(5); !info.Up || !info.In {
		t.Error("osd.5 not fully in service after rejoin")
	}
}

// TestDegradedReadReplicated: with the primary dead and undetected, a read
// pays the request timeout, then succeeds from a surviving replica.
func TestDegradedReadReplicated(t *testing.T) {
	e := newEnv(t)
	data := bytes.Repeat([]byte{0x5A}, 8192)
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "obj", data); err != nil {
			e.fail(err)
		}
		primary := e.primaryID(e.rep, "obj")
		if err := e.c.CrashOSD(primary); err != nil {
			e.fail(err)
		}
		t0 := p.Now()
		got, err := e.gw.Read(p, e.rep, "obj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("degraded read failed: err=%v", err)
		}
		if elapsed := (p.Now() - t0).Duration(); elapsed < e.c.RequestTimeout() {
			t.Errorf("degraded read took %v, should include the %v request timeout", elapsed, e.c.RequestTimeout())
		}
	})
	if e.c.Metrics().Counter("rados_degraded_reads_total").Value() == 0 {
		t.Error("rados_degraded_reads_total not incremented")
	}
	if e.c.Metrics().Counter("rados_requests_timed_out_total").Value() == 0 {
		t.Error("rados_requests_timed_out_total not incremented")
	}
}

// TestDegradedReadEC: with one shard holder dead, a read reconstructs the
// stripe from the surviving k shards inline.
func TestDegradedReadEC(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 9000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.ecp, "eobj", data); err != nil {
			e.fail(err)
		}
		// Crash a non-primary shard holder so the coordinator survives.
		acting := e.c.acting(e.ecp, e.c.PGOf(e.ecp, "eobj"))
		if err := e.c.CrashOSD(acting[1].id); err != nil {
			e.fail(err)
		}
		got, err := e.gw.Read(p, e.ecp, "eobj", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("degraded EC read failed: err=%v", err)
		}
	})
	if e.c.Metrics().Counter("rados_degraded_reads_total").Value() == 0 {
		t.Error("rados_degraded_reads_total not incremented")
	}
}

// TestWriteFailsFastRetryable: a write to a dead, undetected primary times
// out with a retryable error; once the monitor remaps, the same write
// succeeds.
func TestWriteFailsFastRetryable(t *testing.T) {
	e := newEnv(t)
	m := e.c.StartMonitor(monCfg())
	data := bytes.Repeat([]byte{1}, 4096)
	e.runMon(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "obj", data); err != nil {
			e.fail(err)
		}
		primary := e.primaryID(e.rep, "obj")
		if err := e.c.CrashOSD(primary); err != nil {
			e.fail(err)
		}
		t0 := p.Now()
		err := e.gw.WriteFull(p, e.rep, "obj", data)
		if !IsUnavailable(err) {
			t.Fatalf("write to dead primary: err=%v, want retryable unavailability", err)
		}
		if elapsed := (p.Now() - t0).Duration(); elapsed < e.c.RequestTimeout() {
			t.Errorf("fail-fast write took %v, want >= request timeout %v", elapsed, e.c.RequestTimeout())
		}
		// A client-style retry loop rides out detection and remap.
		deadline := p.Now() + sim.Time(10*time.Second)
		for err != nil && IsUnavailable(err) && p.Now() < deadline {
			p.Sleep(50 * time.Millisecond)
			err = e.gw.WriteFull(p, e.rep, "obj2", data)
		}
		if err != nil {
			t.Fatalf("write never succeeded after remap: %v", err)
		}
		m.WaitSettled(p)
		got, err := e.gw.Read(p, e.rep, "obj2", 0, -1)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("post-remap write not readable: err=%v", err)
		}
	})
}

// TestRestartedStaleCopyIsInert: an OSD that missed a write while dead comes
// back with its old copy, which is stale: it never serves a read (the first
// replica in acting order is passed over for the second) and never sources a
// copy, and Recover overwrites it with the current version.
func TestRestartedStaleCopyIsInert(t *testing.T) {
	e := newEnv(t)
	rep3, err := e.c.CreatePool(PoolConfig{Name: "rep3", PGNum: 64, Redundancy: ReplicatedN(3)})
	if err != nil {
		t.Fatal(err)
	}
	oldData := bytes.Repeat([]byte{0x11}, 4096)
	newData := bytes.Repeat([]byte{0x22}, 4096)
	key := store.Key{Pool: rep3.ID, OID: "obj"}
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, rep3, "obj", oldData); err != nil {
			e.fail(err)
		}
		acting := e.c.acting(rep3, e.c.PGOf(rep3, "obj"))
		primary, stale := acting[0], acting[1]
		if err := e.c.CrashOSD(stale.id); err != nil {
			e.fail(err)
		}
		// Degraded write: lands on the primary and the third replica only.
		if err := e.gw.WriteFull(p, rep3, "obj", newData); err != nil {
			e.fail(err)
		}
		if err := e.c.RestartOSD(stale.id); err != nil {
			e.fail(err)
		}
		if got, err := stale.store.Read(key, 0, -1); err != nil || !bytes.Equal(got, oldData) || e.c.current(stale, key) {
			t.Fatalf("restarted replica: err=%v, keeps the old copy %v, current %v; want its old copy kept, stale",
				err, bytes.Equal(got, oldData), e.c.current(stale, key))
		}
		// The primary dies undetected: the read fails over past the stale
		// replica to the current one.
		if err := e.c.CrashOSD(primary.id); err != nil {
			e.fail(err)
		}
		if got, err := e.gw.Read(p, rep3, "obj", 0, -1); err != nil || !bytes.Equal(got, newData) {
			t.Errorf("degraded read: err=%v, stale bytes %v", err, bytes.Equal(got, oldData))
		}
		// Recover, with the primary still dead: the stale copy is a
		// destination, not a source.
		if st := e.c.Recover(p); st.ObjectsCopied != 1 {
			t.Errorf("Recover copied %d objects, want 1 (onto the stale replica)", st.ObjectsCopied)
		}
		if got, err := stale.store.Read(key, 0, -1); err != nil || !bytes.Equal(got, newData) || !e.c.current(stale, key) {
			t.Errorf("after Recover the replica's copy: err=%v, current %v; want the new bytes", err, e.c.current(stale, key))
		}
	})
	if e.c.Metrics().Counter("rados_degraded_writes_total").Value() == 0 {
		t.Error("rados_degraded_writes_total not incremented")
	}
}

// TestECReplaceOSDRebuildsShards: replacing a failed OSD in an EC pool
// reports pending recovery, and Recover actually rebuilds shards onto it.
func TestECReplaceOSDRebuildsShards(t *testing.T) {
	e := newEnv(t)
	const n = 12
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 9000)
			if err := e.gw.WriteFull(p, e.ecp, fmt.Sprintf("e%d", i), data); err != nil {
				e.fail(err)
			}
		}
	})
	if err := e.c.FailOSD(7); err != nil {
		t.Fatal(err)
	}
	pending, err := e.c.ReplaceOSD(7)
	if err != nil {
		t.Fatal(err)
	}
	if !pending {
		t.Error("ReplaceOSD reported no pending recovery for an OSD that held shards")
	}
	var stats RecoveryStats
	e.run(t, func(p *sim.Proc) { stats = e.c.Recover(p) })
	if stats.ShardsRebuilt == 0 {
		t.Fatalf("ShardsRebuilt = 0 after replacing an EC shard holder (stats=%+v)", stats)
	}
	if pending := e.c.recoveryPendingFor(7); pending {
		t.Error("recovery still pending after Recover")
	}
	e.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			want := bytes.Repeat([]byte{byte(i + 1)}, 9000)
			got, err := e.gw.Read(p, e.ecp, fmt.Sprintf("e%d", i), 0, -1)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("object e%d corrupt after rebuild: %v", i, err)
			}
		}
	})
}
