package experiments

import (
	"strings"
	"testing"
)

func TestRegistryOrderAndLookup(t *testing.T) {
	want := []string{"fig3", "table1", "fig5a", "fig10", "fig11",
		"table2", "fig12", "table3", "fig13", "fig14", "chaos", "ablation", "qos", "fpindex", "scale", "tenants", "redundancy"}
	got := Names()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("registry order = %v, want %v", got, want)
	}
	for _, name := range want {
		exp, ok := Lookup(name)
		if !ok || exp.Name() != name {
			t.Errorf("Lookup(%q) = %v, %v", name, exp, ok)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup of unknown experiment succeeded")
	}
}

func TestCanonicalJSONStable(t *testing.T) {
	r := Result{Name: "x", Tables: []Table{{
		Title:   "T",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
	}}}
	j1, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := r.CanonicalJSON()
	if string(j1) != string(j2) {
		t.Error("canonical JSON not stable across marshals")
	}
	s := string(j1)
	if !strings.HasSuffix(s, "\n") {
		t.Error("canonical JSON missing trailing newline")
	}
	// Field order is fixed by the struct: name before tables, title before
	// columns before rows.
	if !(strings.Index(s, `"name"`) < strings.Index(s, `"tables"`) &&
		strings.Index(s, `"title"`) < strings.Index(s, `"columns"`) &&
		strings.Index(s, `"columns"`) < strings.Index(s, `"rows"`)) {
		t.Errorf("canonical key order violated:\n%s", s)
	}
	for _, banned := range []string{"time", "stamp", "wall"} {
		if strings.Contains(s, `"`+banned) {
			t.Errorf("canonical JSON contains wall-clock-ish key %q:\n%s", banned, s)
		}
	}
	if r.Output() != r.Tables[0].String() {
		t.Error("Result.Output must concatenate rendered tables")
	}
}

// TestTraceCaptureIsolation: harnesses built from a captured Scale must not
// leak their sinks into the process-global list, and vice versa.
func TestTraceCaptureIsolation(t *testing.T) {
	TraceReport(10) // drain whatever other tests left behind

	captured, tc := (Scale{Data: 0.1}).WithTraceCapture()
	h := captured.newHarness(1, 1, 1)
	_ = h
	if got := TraceReport(10); got != "" {
		t.Errorf("captured harness leaked into the global sink list:\n%s", got)
	}
	// The capture saw the sink (empty span list renders "", but draining
	// twice proves the sink moved through the capture exactly once).
	tc.mu.Lock()
	n := len(tc.sinks)
	tc.mu.Unlock()
	if n != 1 {
		t.Errorf("capture holds %d sinks, want 1", n)
	}

	plain := Scale{Data: 0.1}
	_ = plain.newHarness(2, 1, 1)
	globalSinks.mu.Lock()
	g := len(globalSinks.sinks)
	globalSinks.mu.Unlock()
	if g != 1 {
		t.Errorf("global list holds %d sinks, want 1", g)
	}
	TraceReport(10) // leave the global list clean for other tests
}
