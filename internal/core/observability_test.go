package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
)

// TestRatePolicyEarlyRunThrottles is the regression test for the
// first-second measurement bug: with foreground load far above the high
// watermark only 200ms into the run, the rate controller must drop the dedup
// class weight into the above-high band (base/opsPerDedupAboveHigh). The old
// full-window average divided those ops by a second that had not elapsed,
// under-reported the rate, and left the controller in the mid (or
// unthrottled) band.
func TestRatePolicyEarlyRunThrottles(t *testing.T) {
	e := newDedupEnv(t, func(cfg *Config) { cfg.Rate = DefaultRate() })
	e.run(t, func(p *sim.Proc) {
		p.Sleep(200 * time.Millisecond)
		fg := e.c.ForegroundOps()
		for i := 0; i < 2000; i++ {
			fg.Note(4096)
		}
		// 2000 ops in 0.2s = 10000 IOPS, far above HighIOPS (4000). The
		// buggy estimate was 2000/1s = 2000, the mid band.
		if iops := fg.RecentIOPS(); iops <= e.s.cfg.Rate.HighIOPS {
			t.Fatalf("RecentIOPS = %v, want > high watermark %v", iops, e.s.cfg.Rate.HighIOPS)
		}
		eng := e.s.Engine()
		eng.rateBase = e.c.QoS().Weight(qos.Dedup)
		eng.rateTick()
		want := eng.rateBase / opsPerDedupAboveHigh
		if got := e.c.QoS().Weight(qos.Dedup); got != want {
			t.Errorf("dedup weight after tick = %d, want %d (above-high band)", got, want)
		}
		if eng.Stats().RateAdjusts != 1 {
			t.Errorf("RateAdjusts = %d, want 1", eng.Stats().RateAdjusts)
		}
	})
}

// TestNoopFlushAccounting verifies that re-flushing a slot whose content
// still matches its chunk performs no chunk-pool I/O and is counted as a
// noop, not a flush.
func TestNoopFlushAccounting(t *testing.T) {
	e := newDedupEnv(t, nil)
	data := make([]byte, 2*4096)
	for i := range data {
		data[i] = byte(i/256 + i)
	}
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
	})
	e.drain(t)
	st := e.s.Engine().Stats()
	if st.ChunksFlushed != 2 || st.NoopFlushes != 0 {
		t.Fatalf("first drain: flushed=%d noop=%d, want 2/0", st.ChunksFlushed, st.NoopFlushes)
	}

	// Rewrite identical content: the slots go dirty again but fingerprint to
	// the chunks they already reference.
	e.run(t, func(p *sim.Proc) {
		if err := e.cl.Write(p, "obj", 0, data); err != nil {
			t.Fatal(err)
		}
	})
	e.drain(t)
	st = e.s.Engine().Stats()
	if st.ChunksFlushed != 2 {
		t.Errorf("identical rewrite counted as flush: flushed=%d, want still 2", st.ChunksFlushed)
	}
	if st.NoopFlushes != 2 {
		t.Errorf("noop flushes = %d, want 2", st.NoopFlushes)
	}
	if reg := e.c.Metrics(); reg.Counter("dedup_noop_flushes_total").Value() != st.NoopFlushes {
		t.Error("registry noop counter disagrees with engine stats")
	}
	e.checkScrub(t)
}

// TestEngineStatsReadRegistry: Stats is the registry's dedup_* counters and
// the tiering policy's skip counter, so after a drain with a requeue, a no-op
// flush and a duplicate the two agree field for field. Each dedup_* counter
// is resolved at its first count, so a store that never flushed dumps none
// of them.
func TestEngineStatsReadRegistry(t *testing.T) {
	names := [...]string{"dedup_objects_scanned_total", "dedup_chunks_flushed_total", "dedup_bytes_flushed_total",
		"dedup_dup_chunks_total", "dedup_noop_flushes_total", "dedup_requeued_total"}
	e := newDedupEnv(t, nil)
	data := randData(1, 2*4096)
	write := func(p *sim.Proc, oid string) {
		if err := e.cl.Write(p, oid, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	e.run(t, func(p *sim.Proc) { write(p, "a") })
	dump := e.c.DumpMetrics()
	for _, n := range names {
		if strings.Contains(dump, "# TYPE "+n+" ") {
			t.Errorf("%s dumped by a store that never flushed", n)
		}
	}
	e.drain(t)
	e.run(t, func(p *sim.Proc) {
		// "a" rewritten with its own bytes is a no-op flush; "b" holds the
		// same bytes, and its first flush ends after the intents and is
		// requeued.
		write(p, "a")
		write(p, "b")
		e.at(atAfterIntent, func(_ *sim.Proc, oid string) bool {
			return oid == "b" && e.s.Engine().Stats().Requeued == 0
		})
		e.s.Engine().DrainAndWait(p)
		e.eng.SetPoints(nil)
	})
	st := e.s.Engine().Stats()
	reg := e.c.Metrics()
	want := EngineStats{
		ObjectsScanned: reg.Counter(names[0]).Value(),
		ChunksFlushed:  reg.Counter(names[1]).Value(),
		BytesFlushed:   reg.Counter(names[2]).Value(),
		DupChunks:      reg.Counter(names[3]).Value(),
		NoopFlushes:    reg.Counter(names[4]).Value(),
		Requeued:       reg.Counter(names[5]).Value(),
		SkippedHot:     reg.Counter("cache_skip_flush_hot_total").Value(),
		RateAdjusts:    reg.Counter("dedup_rate_adjusts_total").Value(),
	}
	if st != want || st.Requeued != 1 || st.NoopFlushes != 2 || st.DupChunks == 0 {
		t.Errorf("Stats() = %+v, registry %+v; want them equal with one requeue, two no-op slots and a duplicate", st, want)
	}
	e.checkScrub(t)
}

// TestTracedWriteChildrenNest: over traced writes and their drain, every
// recorded child span lies within its parent's [Start, End]. The dirty-list
// append a write leaves behind runs after the write's span has finished, so
// it must not record the write as its parent.
func TestTracedWriteChildrenNest(t *testing.T) {
	e := newDedupEnv(t, nil)
	e.run(t, func(p *sim.Proc) {
		for i := range 4 {
			if err := e.cl.Write(p, fmt.Sprintf("obj%d", i), 0, randData(int64(i), 2*4096)); err != nil {
				t.Fatal(err)
			}
		}
		e.s.Engine().DrainAndWait(p)
	})
	spans := e.cl.Trace().Recent(4096)
	if int64(len(spans)) != e.cl.Trace().Total() {
		t.Fatalf("ring kept %d of %d spans", len(spans), e.cl.Trace().Total())
	}
	byID := make(map[uint64]metrics.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	nested := 0
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok || sp.Parent >= sp.ID { // ids count up from Start
			t.Fatalf("%s %d names parent %d, which is not a span recorded and started before it", sp.Name, sp.ID, sp.Parent)
		}
		if sp.Start < parent.Start || sp.End > parent.End {
			t.Errorf("%s [%v, %v] outside its parent %s [%v, %v]", sp.Name, sp.Start, sp.End, parent.Name, parent.Start, parent.End)
		}
		nested++
	}
	if nested == 0 {
		t.Fatal("no child span recorded")
	}
}
