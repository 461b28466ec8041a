package experiments

import (
	"testing"
)

// TestTenantIsolationShape runs the noisy-neighbor study at the golden scale
// and checks the claims its notes make: the bronze SLO holds the quiet
// tenant's p99 within 1.5x of the solo baseline, while turning isolation off
// lets the same neighbor degrade it at least 3x.
func TestTenantIsolationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := TenantIsolation(quickScale)
	if len(rows) != 3 {
		t.Fatalf("expected 3 configurations, got %d", len(rows))
	}
	t.Log(TenantIsolationTable(rows).String())
	solo, off, bronze := rows[0], rows[1], rows[2]
	if solo.QuietP99Ms <= 0 {
		t.Fatalf("solo baseline p99 = %.2fms, want > 0", solo.QuietP99Ms)
	}
	if off.VsSolo < 3 {
		t.Errorf("isolation off: quiet p99 %.2fms is only %.2fx solo (%.2fms), want >= 3x — the neighbor isn't noisy enough",
			off.QuietP99Ms, off.VsSolo, solo.QuietP99Ms)
	}
	if bronze.VsSolo > 1.5 {
		t.Errorf("bronze SLO: quiet p99 %.2fms is %.2fx solo (%.2fms), want <= 1.5x — isolation not holding",
			bronze.QuietP99Ms, bronze.VsSolo, solo.QuietP99Ms)
	}
	if bronze.NoisyThrot == 0 || bronze.NoisyWaitS == 0 {
		t.Errorf("bronze SLO: noisy neighbor never throttled (%d throttles, %.2fs wait) — the bucket isn't engaging",
			bronze.NoisyThrot, bronze.NoisyWaitS)
	}
	if off.NoisyMB <= bronze.NoisyMB {
		t.Errorf("unthrottled neighbor admitted %dMB <= bronze-capped %dMB — the cap isn't the binding constraint",
			off.NoisyMB, bronze.NoisyMB)
	}
}

// TestTenantFleetShape checks the fleet sweep covers all three classes and
// that weighted admission orders average queue wait gold < bronze.
func TestTenantFleetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rows := TenantFleet(quickScale)
	t.Log(TenantFleetTable(rows).String())
	byClass := map[string]TenantFleetRow{}
	for _, r := range rows {
		byClass[r.Class] = r
	}
	for _, cls := range []string{"gold", "silver", "bronze"} {
		r, ok := byClass[cls]
		if !ok {
			t.Fatalf("class %s missing from fleet sweep", cls)
		}
		if r.Ops != int64(r.Tenants)*4 {
			t.Errorf("class %s: %d ops from %d tenants, want %d — ops lost or duplicated",
				cls, r.Ops, r.Tenants, r.Tenants*4)
		}
	}
	if g, b := byClass["gold"], byClass["bronze"]; g.AvgWaitMs >= b.AvgWaitMs {
		t.Errorf("gold avg wait %.2fms >= bronze %.2fms — slot weights not biasing admission",
			g.AvgWaitMs, b.AvgWaitMs)
	}
}
