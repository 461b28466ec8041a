package crush

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// paperCluster builds the paper's testbed topology: 4 hosts × 4 OSDs.
func paperCluster(t testing.TB) *Map {
	m := NewMap()
	for h := 0; h < 4; h++ {
		for d := 0; d < 4; d++ {
			id := h*4 + d
			if err := m.AddOSD(id, fmt.Sprintf("host%d", h), 1.0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

func TestAddOSDValidation(t *testing.T) {
	m := NewMap()
	if err := m.AddOSD(0, "h0", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddOSD(0, "h0", 1); err == nil {
		t.Fatal("duplicate OSD accepted")
	}
	if err := m.AddOSD(1, "h0", 0); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestPGForObjectStable(t *testing.T) {
	a := PGForObject(1, 64, "rbd_data.000123")
	b := PGForObject(1, 64, "rbd_data.000123")
	if a != b {
		t.Fatal("PG mapping not deterministic")
	}
	if a.Seq >= 64 {
		t.Fatalf("pg seq %d out of range", a.Seq)
	}
}

func TestPGDistributionUniform(t *testing.T) {
	const pgNum = 64
	counts := make([]int, pgNum)
	for i := 0; i < 64000; i++ {
		pg := PGForObject(1, pgNum, fmt.Sprintf("obj-%d", i))
		counts[pg.Seq]++
	}
	for seq, c := range counts {
		if c < 700 || c > 1300 { // expect ~1000 each
			t.Fatalf("pg %d has %d objects (skewed)", seq, c)
		}
	}
}

func TestMapPGDistinctHosts(t *testing.T) {
	m := paperCluster(t)
	for seq := uint32(0); seq < 128; seq++ {
		set := m.MapPG(PG{Pool: 1, Seq: seq}, 3)
		if len(set) != 3 {
			t.Fatalf("pg %d mapped to %d osds", seq, len(set))
		}
		hosts := map[string]bool{}
		for _, id := range set {
			o, ok := m.Lookup(id)
			if !ok {
				t.Fatalf("mapped to unknown osd %d", id)
			}
			if hosts[o.Host] {
				t.Fatalf("pg %d: two replicas on host %s", seq, o.Host)
			}
			hosts[o.Host] = true
		}
	}
}

func TestMapPGDeterministic(t *testing.T) {
	m := paperCluster(t)
	pg := PG{Pool: 2, Seq: 17}
	a, b := m.MapPG(pg, 2), m.MapPG(pg, 2)
	if !slices.Equal(a, b) {
		t.Fatal("MapPG not deterministic")
	}
}

func TestOSDLoadBalance(t *testing.T) {
	m := paperCluster(t)
	counts := map[int]int{}
	const pgNum = 512
	for seq := uint32(0); seq < pgNum; seq++ {
		for _, id := range m.MapPG(PG{Pool: 1, Seq: seq}, 2) {
			counts[id]++
		}
	}
	// 512 PGs × 2 replicas over 16 OSDs = 64 average.
	for id, c := range counts {
		if c < 32 || c > 100 {
			t.Fatalf("osd %d has %d PGs (imbalanced)", id, c)
		}
	}
	if len(counts) != 16 {
		t.Fatalf("only %d OSDs used", len(counts))
	}
}

func TestWeightBias(t *testing.T) {
	m := NewMap()
	m.AddOSD(0, "h0", 1)
	m.AddOSD(1, "h1", 3) // 3x weight
	counts := map[int]int{}
	for seq := uint32(0); seq < 4000; seq++ {
		set := m.MapPG(PG{Pool: 1, Seq: seq}, 1)
		counts[set[0]]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.4 || ratio > 3.7 {
		t.Fatalf("weight bias ratio %.2f, want ~3", ratio)
	}
}

func TestMinimalMovementOnOSDOut(t *testing.T) {
	before := paperCluster(t)
	after := before.Clone()
	after.SetIn(5, false) // fail one of 16 OSDs out
	const pgNum = 512
	moved := movedPGs(before, after, 1, pgNum, 2)
	// Ideal movement = PGs that had osd.5 (~ 2*512/16 = 64). Allow overhead
	// for cascading straw2 choices but far below full reshuffle.
	if len(moved) > pgNum/3 {
		t.Fatalf("%d/%d PGs moved on single-OSD out (not minimal)", len(moved), pgNum)
	}
	// Every PG that previously used osd.5 must have moved off it.
	for seq := uint32(0); seq < pgNum; seq++ {
		set := after.MapPG(PG{Pool: 1, Seq: seq}, 2)
		for _, id := range set {
			if id == 5 {
				t.Fatalf("pg %d still mapped to out osd", seq)
			}
		}
	}
}

func TestActingSetSkipsDownOSDs(t *testing.T) {
	m := paperCluster(t)
	pg := PG{Pool: 1, Seq: 3}
	full := m.MapPG(pg, 2)
	m.SetUp(full[0], false)
	acting := m.ActingSet(pg, 2)
	if len(acting) != 1 || acting[0] != full[1] {
		t.Fatalf("acting=%v full=%v", acting, full)
	}
}

func TestEpochBumps(t *testing.T) {
	m := NewMap()
	e0 := m.Epoch
	m.AddOSD(0, "h", 1)
	if m.Epoch <= e0 {
		t.Fatal("AddOSD did not bump epoch")
	}
	e1 := m.Epoch
	m.SetUp(0, false)
	if m.Epoch <= e1 {
		t.Fatal("SetUp did not bump epoch")
	}
	e2 := m.Epoch
	m.SetUp(0, false) // no-op
	if m.Epoch != e2 {
		t.Fatal("no-op SetUp bumped epoch")
	}
	m.SetIn(0, false)
	if m.Epoch <= e2 {
		t.Fatal("SetIn did not bump epoch")
	}
}

func TestFallbackWhenFewHosts(t *testing.T) {
	// 1 host, 4 OSDs, 3 replicas: failure-domain separation impossible, must
	// fall back to distinct OSDs.
	m := NewMap()
	for i := 0; i < 4; i++ {
		m.AddOSD(i, "onlyhost", 1)
	}
	set := m.MapPG(PG{Pool: 1, Seq: 0}, 3)
	if len(set) != 3 {
		t.Fatalf("got %d replicas, want 3", len(set))
	}
	seen := map[int]bool{}
	for _, id := range set {
		if seen[id] {
			t.Fatal("duplicate OSD in set")
		}
		seen[id] = true
	}
}

func TestMapPGEmptyCluster(t *testing.T) {
	m := NewMap()
	if set := m.MapPG(PG{Pool: 1, Seq: 0}, 2); set != nil {
		t.Fatalf("empty cluster mapped to %v", set)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := paperCluster(t)
	c := m.Clone()
	c.SetIn(0, false)
	if o, _ := m.Lookup(0); !o.In {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestQuickMapPGAlwaysDistinct(t *testing.T) {
	m := paperCluster(t)
	prop := func(pool uint64, seq uint32, n uint8) bool {
		want := int(n%4) + 1
		set := m.MapPG(PG{Pool: pool, Seq: seq}, want)
		if len(set) != want {
			return false
		}
		seen := map[int]bool{}
		for _, id := range set {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// movedPGs compares PG mappings between two maps and returns the PG
// sequence numbers whose OSD sets differ — the PGs that must rebalance.
func movedPGs(a, b *Map, pool uint64, pgNum uint32, n int) []uint32 {
	var moved []uint32
	for seq := uint32(0); seq < pgNum; seq++ {
		pg := PG{Pool: pool, Seq: seq}
		sa, sb := a.MapPG(pg, n), b.MapPG(pg, n)
		if !slices.Equal(sa, sb) {
			moved = append(moved, seq)
		}
	}
	return moved
}
