package experiments

import (
	"strings"
	"testing"
)

// tinyScale keeps the experiment smoke tests fast; quickScale is for the
// shape tests that need a little more data.
var tinyScale, quickScale = Scale{Data: 0.1}, Scale{Data: 0.25}

func TestFig3ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := Fig3(tinyScale)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Global <= r.Local {
			t.Errorf("%s: global %.1f <= local %.1f", r.Workload, r.Global, r.Local)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := Table1(tinyScale)
	if rows[0].Local <= rows[3].Local {
		t.Errorf("local ratio did not collapse with OSD count: %.1f -> %.1f", rows[0].Local, rows[3].Local)
	}
	for _, r := range rows {
		if r.Global < 40 || r.Global > 60 {
			t.Errorf("global ratio %.1f far from 50%%", r.Global)
		}
	}
}

func TestFig5aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := Fig5a(tinyScale)
	if rows[1].Throughput >= rows[0].Throughput {
		t.Errorf("inline 16K (%.1f) not slower than original (%.1f)", rows[1].Throughput, rows[0].Throughput)
	}
	if rows[2].Throughput <= rows[1].Throughput {
		t.Errorf("aligned 32K (%.1f) not faster than partial 16K (%.1f)", rows[2].Throughput, rows[1].Throughput)
	}
}

// TestFig14Shape pins the interference picture at the golden scale (at
// tinyScale the span is three blocks and nothing contends): an unthrottled
// engine costs the foreground at least 5 % of its throughput — Figure 5-(b)
// is that run — and the watermark controller gives all but 2 % of it back.
// The paper's drop is far deeper (600 -> 200 MB/s); EXPERIMENTS.md states
// the distance. The ablation reads the same runs: only the controller
// adjusts the rate, and it still flushes its deferred backlog once the
// stream stops. 8 s of simulated foreground per run.
func TestFig14Shape(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("experiment smoke test")
	}
	t.Parallel()
	rs := Fig14(quickScale)
	ideal, static, controlled := rs[0], rs[1], rs[2]
	if retainedPct(ideal) < 98 || retainedPct(static) > 95 || retainedPct(controlled) < 98 {
		t.Errorf("retained %%: ideal %.1f (want >= 98), without rate control %.1f (want <= 95), with it %.1f (want >= 98)",
			retainedPct(ideal), retainedPct(static), retainedPct(controlled))
	}
	if retainedPct(controlled) <= retainedPct(static) {
		t.Errorf("controller retains %.1f %%, not more than the static weight's %.1f %%", retainedPct(controlled), retainedPct(static))
	}
	if static.RateAdjusts != 0 || controlled.RateAdjusts == 0 {
		t.Errorf("rate adjusts: static %d (want 0), controller %d (want > 0)", static.RateAdjusts, controlled.RateAdjusts)
	}
	if controlled.FlushedIdle == 0 {
		t.Error("controller flushed nothing in the idle tail")
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := Fig10(tinyScale)
	lat := map[string]float64{}
	for _, r := range rows {
		if r.Op == "randwrite" {
			lat[r.Config] = float64(r.Latency)
		}
	}
	if !(lat["Original"] < lat["Proposed"] && lat["Proposed"] < lat["Proposed-flush"]) {
		t.Errorf("write latency ordering wrong: %v", lat)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := Table2(tinyScale)
	if !(rows[0].StoredMetadata > rows[1].StoredMetadata && rows[1].StoredMetadata > rows[2].StoredMetadata) {
		t.Errorf("metadata not shrinking with chunk size: %d/%d/%d",
			rows[0].StoredMetadata, rows[1].StoredMetadata, rows[2].StoredMetadata)
	}
	if rows[0].IdealRatio < rows[2].IdealRatio {
		t.Errorf("ideal ratio not declining: %.1f -> %.1f", rows[0].IdealRatio, rows[2].IdealRatio)
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := Table3(tinyScale)
	for _, r := range rows {
		if r.ProposedMoved >= r.OriginalMoved {
			t.Errorf("%d failed: proposed moved %d >= original %d", r.FailedOSDs, r.ProposedMoved, r.OriginalMoved)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	series := Fig13(tinyScale)
	byLabel := map[string][]int64{}
	for _, s := range series {
		byLabel[s.Label] = s.UsedBytes
	}
	last := func(l string) int64 { u := byLabel[l]; return u[len(u)-1] }
	if last("rep+dedup") >= last("rep")/5 {
		t.Errorf("dedup saving too small: %d vs %d", last("rep+dedup"), last("rep"))
	}
	if last("rep+dedup+comp") >= last("rep+dedup") {
		t.Errorf("compression did not help: %d vs %d", last("rep+dedup+comp"), last("rep+dedup"))
	}
	if last("ec") >= last("rep") {
		t.Errorf("EC not cheaper than replication: %d vs %d", last("ec"), last("rep"))
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	out := tab.String()
	for _, want := range []string{"== t ==", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	sc := Scale{Data: 0.5}
	if sc.bytes(100) != 50 || sc.count(10) != 5 {
		t.Fatal("scale math wrong")
	}
	if (Scale{}).bytes(7) != 7 {
		t.Fatal("zero scale must pass through")
	}
	if (Scale{Data: 0.0001}).count(10) != 1 {
		t.Fatal("count must clamp to 1")
	}
}

// TestFPIndexShape runs the latency sweep at the golden scale and checks the
// claims the table's notes make: a monotone hit-latency cliff once the index
// outgrows the small cache, a flat profile under the large cache, near-flat
// negative lookups under both, and bloom false positives within ~2x of the
// filters' design rate. Both seeds must show the same shape.
func TestFPIndexShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := FPIndexLatencySweep(quickScale)
	// Group rows by (seed, cache); within each group entries ascend.
	groups := map[[2]int64][]FPIndexLatencyRow{}
	var order [][2]int64
	for _, r := range rows {
		k := [2]int64{r.Seed, r.CacheKiB}
		if len(groups[k]) == 0 {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	for _, k := range order {
		g := groups[k]
		if len(g) < 3 {
			t.Fatalf("seed %d cache %dKiB: only %d index sizes", k[0], k[1], len(g))
		}
		first, last := g[0], g[len(g)-1]
		for i := 1; i < len(g); i++ {
			if g[i].HitP50Us < g[i-1].HitP50Us*0.99 {
				t.Errorf("seed %d cache %dKiB: hit p50 not monotone: %d entries %.1fus -> %d entries %.1fus",
					k[0], k[1], g[i-1].Entries, g[i-1].HitP50Us, g[i].Entries, g[i].HitP50Us)
			}
		}
		smallCache := last.IndexKiB > k[1]
		if smallCache && last.HitP50Us < 1.2*first.HitP50Us {
			t.Errorf("seed %d cache %dKiB: no cliff: index %dKiB exceeds cache but hit p50 %.1fus vs %.1fus",
				k[0], k[1], last.IndexKiB, last.HitP50Us, first.HitP50Us)
		}
		if !smallCache && last.HitP50Us > 1.2*first.HitP50Us {
			t.Errorf("seed %d cache %dKiB: cached config not flat: hit p50 %.1fus vs %.1fus",
				k[0], k[1], last.HitP50Us, first.HitP50Us)
		}
		if last.NegP50Us > 1.2*first.NegP50Us {
			t.Errorf("seed %d cache %dKiB: negative lookups not flat: p50 %.1fus vs %.1fus",
				k[0], k[1], last.NegP50Us, first.NegP50Us)
		}
		for _, r := range g {
			if r.ObsFPPct > 2*r.EstFPPct+0.1 {
				t.Errorf("seed %d cache %dKiB entries %d: observed FP %.2f%% beyond 2x design %.2f%%",
					k[0], k[1], r.Entries, r.ObsFPPct, r.EstFPPct)
			}
		}
	}
}

// TestAblationShape gates the direction an ablation's note claims. The cache
// manager's hot exemption must cut the bytes the engine flushes to at most a
// quarter of what the same rewrites flush with it off. The CDC-mode store
// must save more than the fixed-chunk store, on byte-shifted streams and on
// backup generations alike. False-positive refcounting must leave chunks
// behind after the deletes, and none once GC has run.
func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	sc := quickScale
	rows := AblationCache(sc)
	on, off := rows[0], rows[1]
	if on.FlushedBytes*4 > off.FlushedBytes {
		t.Errorf("cache on flushed %d bytes, cache off %d: want at most a quarter", on.FlushedBytes, off.FlushedBytes)
	}
	if cdc := AblationCDCStore(sc); cdc[1].Saved <= cdc[0].Saved {
		t.Errorf("shifted streams: %s saves %.1f%%, %s %.1f%%: want CDC ahead", cdc[1].Store, cdc[1].Saved, cdc[0].Store, cdc[0].Saved)
	}
	if bk := AblationBackup(sc); bk[1].Saved <= bk[0].Saved {
		t.Errorf("backup generations: %s saves %.1f%%, %s %.1f%%: want CDC ahead", bk[1].Store, bk[1].Saved, bk[0].Store, bk[0].Saved)
	}
	if fp := AblationRefcount(sc)[1]; fp.ChunksLeaked == 0 || fp.FinalChunkCount != 0 {
		t.Errorf("%s: %d chunks before GC, %d after: want some, then none", fp.Mode, fp.ChunksLeaked, fp.FinalChunkCount)
	}
}
