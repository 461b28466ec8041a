package experiments

import (
	"testing"
	"time"
)

// TestRedundancyShape runs the frontier sweep at the golden scale and checks
// the dominance claims the table's notes make: adaptive must match or beat
// the best static storage efficiency (Dedup+EC) while holding the hot-set
// read tail within 1.5x of the best static tail (Replication). The chaos
// soak must come back with every invariant intact.
func TestRedundancyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := Redundancy(quickScale)
	byName := map[string]RedundancyRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	rep, ok1 := byName["Replication"]
	ec, ok2 := byName["Dedup+EC"]
	ad, ok3 := byName["Adaptive"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing configs in sweep: %v", rows)
	}
	if ad.Efficiency < ec.Efficiency {
		t.Errorf("adaptive efficiency %.3f below static Dedup+EC %.3f", ad.Efficiency, ec.Efficiency)
	}
	if limit := time.Duration(float64(rep.HotP99) * 1.5); ad.HotP99 > limit {
		t.Errorf("adaptive hot p99 %v exceeds 1.5x Replication (%v, limit %v)", ad.HotP99, rep.HotP99, limit)
	}
	if ad.Migrations == 0 {
		t.Error("adaptive config performed no migrations; tiering daemon did not run")
	}
	if ad.TierErrors != 0 {
		t.Errorf("adaptive config hit %d tiering errors in a fault-free run", ad.TierErrors)
	}
	for _, r := range rows {
		if r.HotReads == 0 {
			t.Errorf("%s: no hot reads recorded", r.Config)
		}
	}

	ch := RedundancyChaos(quickScale)
	if ch.Migrations == 0 {
		t.Error("chaos soak performed no migrations; kills landed against an idle daemon")
	}
	if ch.StaleRefs != 0 {
		t.Errorf("stale refs after post-mortem GC: %d", ch.StaleRefs)
	}
	if ch.ScrubIssues != 0 {
		t.Errorf("scrub issues after reconciliation: %d", ch.ScrubIssues)
	}
	if ch.LostChunks != 0 {
		t.Errorf("lost chunks after OSD kills: %d", ch.LostChunks)
	}
	if ch.VerifyErrors != 0 {
		t.Errorf("objects failed byte-for-byte verification: %d", ch.VerifyErrors)
	}
}
