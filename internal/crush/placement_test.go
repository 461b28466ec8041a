package crush

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updatePlacement = flag.Bool("update", false, "rewrite testdata/placement.golden from this tree")

// placementTable renders MapPG and ActingSet for every PG of two pools on
// the paper's 4 × 4 map (64 PGs each, at the widths of a 2-replica pool and
// of a 3-replica or EC 2+1 pool), in three states: every OSD up and in,
// osd.5 marked out, and osd.5 marked down but left in.
func placementTable(t *testing.T) string {
	var b strings.Builder
	states := []struct {
		name string
		mark func(m *Map)
	}{
		{"all-in", func(*Map) {}},
		{"osd5-out", func(m *Map) { m.SetIn(5, false) }},
		{"osd5-down", func(m *Map) { m.SetUp(5, false) }},
	}
	for _, st := range states {
		m := paperCluster(t)
		st.mark(m)
		for _, pool := range []struct {
			id    uint64
			width int
		}{{1, 2}, {2, 3}} {
			for seq := uint32(0); seq < 64; seq++ {
				pg := PG{Pool: pool.id, Seq: seq}
				fmt.Fprintf(&b, "%s %s n=%d map=%v acting=%v\n", st.name, pg, pool.width,
					m.MapPG(pg, pool.width), m.ActingSet(pg, pool.width))
			}
		}
	}
	return b.String()
}

// TestPlacementFixture pins placement: the checked-in table was recorded
// from the tree before the device-class filter was removed, so any change to
// the straw2 draws, the host-first choice or the acting-set rule shows here.
// Regenerate with `go test ./internal/crush -run PlacementFixture -update`
// only for an intended placement change.
func TestPlacementFixture(t *testing.T) {
	const path = "testdata/placement.golden"
	got := placementTable(t)
	if *updatePlacement {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("placement moved at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("placement table has %d lines, fixture %d", len(gl), len(wl))
}
