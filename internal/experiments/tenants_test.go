package experiments

import "testing"

// tenantIsolationShape checks the claims the noisy-neighbor table's notes
// make: the bronze SLO holds the quiet tenant's p99 within 1.5x of the solo
// baseline, while turning isolation off lets the same neighbor degrade it at
// least 3x.
func tenantIsolationShape(tabs []Table) error {
	s := &shape{tabs: tabs}
	rows := s.rows("Tenants: quiet gold tenant")
	if len(rows) != 3 {
		s.failf("expected 3 configurations, got %d", len(rows))
		return s.err()
	}
	solo, off, bronze := rows[0], rows[1], rows[2]
	soloP99 := s.num(solo, "quiet p99 ms")
	if soloP99 <= 0 {
		s.failf("solo baseline p99 = %.2fms, want > 0", soloP99)
		return s.err()
	}
	if v := s.num(off, "vs solo"); v < 3 {
		s.failf("isolation off: quiet p99 %.2fms is only %.2fx solo (%.2fms), want >= 3x — the neighbor isn't noisy enough",
			s.num(off, "quiet p99 ms"), v, soloP99)
	}
	if v := s.num(bronze, "vs solo"); v > 1.5 {
		s.failf("bronze SLO: quiet p99 %.2fms is %.2fx solo (%.2fms), want <= 1.5x — isolation not holding",
			s.num(bronze, "quiet p99 ms"), v, soloP99)
	}
	if throt, wait := s.num(bronze, "noisy throttled"), s.num(bronze, "noisy wait s"); throt == 0 || wait == 0 {
		s.failf("bronze SLO: noisy neighbor never throttled (%.0f throttles, %.2fs wait) — the bucket isn't engaging", throt, wait)
	}
	if o, b := s.num(off, "noisy MB"), s.num(bronze, "noisy MB"); o <= b {
		s.failf("unthrottled neighbor admitted %.0fMB <= bronze-capped %.0fMB — the cap isn't the binding constraint", o, b)
	}
	return s.err()
}

func TestTenantIsolationShape(t *testing.T) { checkShape(t, "tenants", tenantIsolationShape) }

// tenantFleetShape checks the fleet sweep covers all three classes and that
// weighted admission orders average queue wait gold < bronze.
func tenantFleetShape(tabs []Table) error {
	s := &shape{tabs: tabs}
	const fleet = "Tenants: fleet"
	byClass := map[string]map[string]string{}
	for _, r := range s.rows(fleet) {
		byClass[r["class"]] = r
	}
	for _, cls := range []string{"gold", "silver", "bronze"} {
		r, ok := byClass[cls]
		if !ok {
			s.failf("class %s missing from fleet sweep", cls)
			return s.err()
		}
		if ops, tenants := s.num(r, "ops"), s.num(r, "tenants"); ops != tenants*4 {
			s.failf("class %s: %.0f ops from %.0f tenants, want %.0f — ops lost or duplicated", cls, ops, tenants, tenants*4)
		}
	}
	if g, b := s.num(byClass["gold"], "avg wait ms"), s.num(byClass["bronze"], "avg wait ms"); g >= b {
		s.failf("gold avg wait %.2fms >= bronze %.2fms — slot weights not biasing admission", g, b)
	}
	return s.err()
}

func TestTenantFleetShape(t *testing.T) { checkShape(t, "tenants", tenantFleetShape) }
