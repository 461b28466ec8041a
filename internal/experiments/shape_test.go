package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The golden-scale shape tests assert the paper's shapes on the checked-in
// snapshots under testdata/golden instead of simulating the runs again: the
// golden gate (`make golden`) proves a snapshot is what the code simulates,
// and a shape predicate, a func([]Table) error, proves the snapshot holds
// the claim. `make golden-write` runs these tests right after it writes, so
// a regeneration that drops a claim fails before it is committed.

// goldenTables reads the checked-in snapshot of experiment name.
func goldenTables(t *testing.T, name string) []Table {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("parse %s golden: %v", name, err)
	}
	return r.Tables
}

// checkShape runs a shape predicate on experiment name's golden tables.
func checkShape(t *testing.T, name string, pred func([]Table) error) {
	t.Helper()
	if err := pred(goldenTables(t, name)); err != nil {
		t.Errorf("the %s golden breaks its shape:\n%v", name, err)
	}
}

// checkSmokeShape runs a shape predicate on experiment name's golden tables
// and, outside -short, on the tables the experiment builds at tinyScale.
func checkSmokeShape(t *testing.T, name string, pred func([]Table) error) {
	t.Helper()
	checkShape(t, name, pred)
	if testing.Short() {
		return
	}
	exp, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	if err := pred(exp.Run(tinyScale)); err != nil {
		t.Errorf("the %s tables at tinyScale break their shape:\n%v", name, err)
	}
}

// shape reads a predicate's cells out of rendered tables and collects its
// failures. A table, row, column or number it cannot read is a failure too,
// so a predicate that asks for a cell the tables lack fails instead of
// comparing zeros.
type shape struct {
	tabs []Table
	errs []error
}

func (s *shape) failf(format string, args ...any) {
	s.errs = append(s.errs, fmt.Errorf(format, args...))
}

func (s *shape) err() error { return errors.Join(s.errs...) }

// rows returns the body of the table whose title starts with title, each row
// keyed by column name.
func (s *shape) rows(title string) []map[string]string {
	i := slices.IndexFunc(s.tabs, func(t Table) bool { return strings.HasPrefix(t.Title, title) })
	if i < 0 {
		s.failf("no table titled %q", title)
		return nil
	}
	tab := s.tabs[i]
	rows := make([]map[string]string, len(tab.Rows))
	for r, cells := range tab.Rows {
		rows[r] = map[string]string{}
		for c, cell := range cells {
			if c < len(tab.Columns) {
				rows[r][tab.Columns[c]] = cell
			}
		}
	}
	return rows
}

// row returns the first row of table title whose cells match keys, given
// as column, value pairs.
func (s *shape) row(title string, keys ...string) map[string]string {
rows:
	for _, r := range s.rows(title) {
		for i := 0; i+1 < len(keys); i += 2 {
			if r[keys[i]] != keys[i+1] {
				continue rows
			}
		}
		return r
	}
	s.failf("table %q has no row with %q", title, keys)
	return nil
}

// num parses the cell of row in column col: a number, optionally followed by
// " MB", or a duration such as "408µs", in microseconds. A nil row reads 0:
// row has already reported it missing.
func (s *shape) num(row map[string]string, col string) float64 {
	if row == nil {
		return 0
	}
	cell, ok := row[col]
	if !ok {
		s.failf("no column %q", col)
		return 0
	}
	if v, err := strconv.ParseFloat(strings.TrimSuffix(cell, " MB"), 64); err == nil {
		return v
	}
	if d, err := time.ParseDuration(cell); err == nil {
		return float64(d) / float64(time.Microsecond)
	}
	s.failf("column %q: cell %q is not a number", col, cell)
	return 0
}

// TestShapePredicatesBite moves one golden cell past each bound of each
// shape predicate, or drops a row where the bound is on rows, and requires
// the predicate to fail with that bound's message. A predicate that reads
// the wrong table or column cannot pass this silently. The cut values lie
// far past their bounds, so a reviewed regeneration that keeps the shapes
// keeps this test passing.
func TestShapePredicatesBite(t *testing.T) {
	type cut struct {
		table string // title prefix
		row   int
		col   string // "" drops the row
		value string
		want  string // in the predicate's error
	}
	const (
		fig3      = "Figure 3:"
		table1    = "Table 1:"
		fig5a     = "Figure 5-(a):"
		fig10     = "Figure 10:"
		table2    = "Table 2:"
		table3    = "Table 3:"
		fig13     = "Figure 13:"
		fig14     = "Figure 14:"
		rateAbl   = "QoS: watermark weight controller"
		lookups   = "fpindex: chunk-existence lookup latency"
		flush     = "fpindex: background dedup flush throughput"
		cacheAbl  = "Ablation: cache manager"
		cdcAbl    = "Ablation: fixed vs CDC store"
		backupAbl = "Ablation: backup generations"
		refAbl    = "Ablation: strict vs false-positive"
		frontier  = "Adaptive redundancy: storage-efficiency"
		redChaos  = "Adaptive redundancy: OSD kills"
		isolation = "Tenants: quiet gold tenant"
		fleet     = "Tenants: fleet"
	)
	for _, p := range []struct {
		golden string
		pred   func([]Table) error
		cuts   []cut
	}{
		{"fig3", fig3Shape, []cut{
			{fig3, 0, "", "", "has 5 workloads, want 6"},
			{fig3, 5, "global", "10.0", "global 10.0 <= local"},
		}},
		{"table1", table1Shape, []cut{
			{table1, 3, "local", "30.0", "did not collapse"},
			{table1, 0, "global", "30.0", "global ratio 30.0 far from 50%"},
			{table1, 2, "global", "70.0", "global ratio 70.0 far from 50%"},
		}},
		{"fig5a", fig5aShape, []cut{
			{fig5a, 1, "MB/s", "300.0", "not slower than original"},
			{fig5a, 2, "MB/s", "1.0", "not faster than partial"},
		}},
		{"fig10", fig10Shape, []cut{
			{fig10, 0, "mean latency", "5ms", "Original 5000µs >= Proposed"},
			{fig10, 4, "mean latency", "1ms", ">= Proposed-flush 1000µs"},
		}},
		{"table2", table2Shape, []cut{
			{table2, 1, "stored metadata", "1.00 MB", "0.52 MB -> 1.00 MB"},
			{table2, 2, "stored metadata", "0.50 MB", "0.26 MB -> 0.50 MB"},
			{table2, 2, "ideal %", "50.0", "ideal ratio not declining"},
		}},
		{"table3", table3Shape, []cut{
			{table3, 1, "prop moved", "100.00 MB", "2 failed: proposed moved"},
		}},
		{"fig13", fig13Shape, []cut{
			{fig13, 9, "rep+dedup", "20.00 MB", "dedup saving too small"},
			{fig13, 9, "rep+dedup+comp", "1.00 MB", "compression did not help"},
			{fig13, 9, "ec", "50.00 MB", "EC not cheaper"},
		}},
		{"fig14", fig14Shape, []cut{
			{fig14, 7, "no deduplication (ideal)", "0.0", "ideal run retains"},
			{rateAbl, 0, "retained %", "100.0", "without rate control the foreground retains"},
			{rateAbl, 1, "retained %", "50.0", "with rate control the foreground retains"},
			{rateAbl, 1, "retained %", "0.0", "not more than the static weight's"},
			{rateAbl, 0, "rate adjusts", "1", "static weight adjusted the rate"},
			{rateAbl, 1, "rate adjusts", "0", "controller never adjusted the rate"},
			{rateAbl, 1, "flushed (idle)", "0", "flushed nothing in the idle tail"},
		}},
		{"fpindex", fpindexShape, []cut{
			{lookups, 0, "", "", "index sizes"},
			{lookups, 1, "hit p50 us", "1.0", "hit p50 not monotone"},
			{lookups, 0, "hit p50 us", "1000.0", "no cliff"},
			{lookups, 5, "index KiB/osd", "2000", "no cliff"},
			{lookups, 5, "hit p50 us", "1000.0", "cached config not flat"},
			{lookups, 2, "neg p50 us", "1000.0", "negative lookups not flat"},
			{lookups, 0, "obs FP %", "50.00", "beyond 2x design"},
			{flush, 4, "flush MB/s", "40.0", "more than 5% below the flat map's 52.5"},
			{flush, 2, "flush MB/s", "60.0", "not below the 1 MiB cache's 50.9"},
		}},
		{"ablation", ablationShape, []cut{
			{cacheAbl, 0, "background bytes flushed", "1000.00 MB", "want at most a quarter"},
			{cdcAbl, 1, "saved %", "0.0", "shifted streams"},
			{backupAbl, 1, "saved %", "0.0", "backup generations"},
			{refAbl, 1, "chunks left pre-GC", "0", "left no chunks before GC"},
			{refAbl, 1, "final chunks", "1", "chunks after GC"},
		}},
		{"redundancy", redundancyShape, []cut{
			{frontier, 3, "efficiency", "0.00", "below static Dedup+EC"},
			{frontier, 3, "hot p99", "1s", "exceeds 1.5x Replication"},
			{frontier, 3, "migrations", "0", "adaptive config performed no migrations"},
			{frontier, 3, "tier errors", "1", "tiering errors in a fault-free run"},
			{frontier, 1, "hot reads", "0", "no hot reads recorded"},
			{redChaos, 0, "migrations", "0", "chaos soak performed no migrations"},
			{redChaos, 0, "stale refs", "1", "stale refs after post-mortem GC"},
			{redChaos, 0, "scrub issues", "1", "scrub issues after reconciliation"},
			{redChaos, 0, "lost chunks", "1", "lost chunks after OSD kills"},
			{redChaos, 0, "verify errors", "1", "failed byte-for-byte verification"},
		}},
		{"tenants", tenantIsolationShape, []cut{
			{isolation, 2, "", "", "expected 3 configurations"},
			{isolation, 0, "quiet p99 ms", "0.00", "solo baseline p99"},
			{isolation, 1, "vs solo", "1.00", "the neighbor isn't noisy enough"},
			{isolation, 2, "vs solo", "9.00", "isolation not holding"},
			{isolation, 2, "noisy throttled", "0", "noisy neighbor never throttled"},
			{isolation, 2, "noisy wait s", "0.00", "noisy neighbor never throttled"},
			{isolation, 1, "noisy MB", "0", "the cap isn't the binding constraint"},
		}},
		{"tenants", tenantFleetShape, []cut{
			{fleet, 1, "", "", "class gold missing"},
			{fleet, 2, "ops", "1", "ops lost or duplicated"},
			{fleet, 1, "avg wait ms", "100.00", "slot weights not biasing admission"},
		}},
	} {
		golden := goldenTables(t, p.golden)
		for _, c := range p.cuts {
			err := p.pred(cutCell(t, golden, c.table, c.row, c.col, c.value))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %q row %d col %q = %q: predicate returned %v, want an error naming %q",
					p.golden, c.table, c.row, c.col, c.value, err, c.want)
			}
		}
	}
}

// cutCell returns a deep copy of tabs with one cell of the table titled
// title (by prefix) set to value, or with the row dropped when col is "".
func cutCell(t *testing.T, tabs []Table, title string, row int, col, value string) []Table {
	t.Helper()
	out := make([]Table, len(tabs))
	for i, tab := range tabs {
		tab.Rows = make([][]string, len(tabs[i].Rows))
		for r, cells := range tabs[i].Rows {
			tab.Rows[r] = slices.Clone(cells)
		}
		out[i] = tab
	}
	i := slices.IndexFunc(out, func(tab Table) bool { return strings.HasPrefix(tab.Title, title) })
	if i < 0 || row >= len(out[i].Rows) {
		t.Fatalf("cut: no table %q with row %d", title, row)
	}
	if col == "" {
		out[i].Rows = slices.Delete(out[i].Rows, row, row+1)
		return out
	}
	c := slices.Index(out[i].Columns, col)
	if c < 0 {
		t.Fatalf("cut: table %q has no column %q", title, col)
	}
	out[i].Rows[row][c] = value
	return out
}
