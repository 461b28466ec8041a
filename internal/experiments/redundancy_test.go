package experiments

import "testing"

// redundancyShape checks the dominance claims the frontier table's notes
// make: adaptive must match or beat the best static storage efficiency
// (Dedup+EC) while holding the hot-set read tail within 1.5x of the best
// static tail (Replication). The chaos soak must come back with every
// invariant intact.
func redundancyShape(tabs []Table) error {
	s := &shape{tabs: tabs}
	const frontier = "Adaptive redundancy: storage-efficiency"
	rep := s.row(frontier, "config", "Replication")
	ec := s.row(frontier, "config", "Dedup+EC")
	ad := s.row(frontier, "config", "Adaptive")
	if a, e := s.num(ad, "efficiency"), s.num(ec, "efficiency"); a < e {
		s.failf("adaptive efficiency %.2f below static Dedup+EC %.2f", a, e)
	}
	if a, r := s.num(ad, "hot p99"), s.num(rep, "hot p99"); a > 1.5*r {
		s.failf("adaptive hot p99 %.0fµs exceeds 1.5x Replication (%.0fµs, limit %.1fµs)", a, r, 1.5*r)
	}
	if s.num(ad, "migrations") == 0 {
		s.failf("adaptive config performed no migrations; tiering daemon did not run")
	}
	if n := s.num(ad, "tier errors"); n != 0 {
		s.failf("adaptive config hit %.0f tiering errors in a fault-free run", n)
	}
	for _, r := range s.rows(frontier) {
		if s.num(r, "hot reads") == 0 {
			s.failf("%s: no hot reads recorded", r["config"])
		}
	}

	chaos := s.rows("Adaptive redundancy: OSD kills")
	if len(chaos) != 1 {
		s.failf("chaos soak table has %d rows, want 1", len(chaos))
		return s.err()
	}
	ch := chaos[0]
	if s.num(ch, "migrations") == 0 {
		s.failf("chaos soak performed no migrations; kills landed against an idle daemon")
	}
	for _, c := range []struct{ col, what string }{
		{"stale refs", "stale refs after post-mortem GC"},
		{"scrub issues", "scrub issues after reconciliation"},
		{"lost chunks", "lost chunks after OSD kills"},
		{"verify errors", "objects failed byte-for-byte verification"},
	} {
		if n := s.num(ch, c.col); n != 0 {
			s.failf("%s: %.0f", c.what, n)
		}
	}
	return s.err()
}

func TestRedundancyShape(t *testing.T) { checkShape(t, "redundancy", redundancyShape) }
