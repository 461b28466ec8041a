package experiments

import (
	"fmt"
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
		if !ok || exp.Name != name {
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

// TestTraceCaptureIsolation: a run records its trace sink in the capture of
// the Scale it ran under, at its run index, and nowhere else; a run that
// builds no harness leaves its slot empty, and a Scale without a capture
// records nothing.
func TestTraceCaptureIsolation(t *testing.T) {
	a, tcA := (Scale{Data: 0.1}).WithTraceCapture()
	b, tcB := (Scale{Data: 0.1}).WithTraceCapture()
	build := func(tb *Testbed, seed int64) int64 {
		if seed > 0 {
			tb.harness(seed, 1, 1)
		}
		return seed
	}
	Runs(a, []int64{1}, build)
	Runs(b, []int64{2, 0}, build)
	Runs(b, []int64{3}, build)
	Runs(Scale{Data: 0.1}, []int64{4}, build)
	for _, c := range []struct {
		name string
		tc   *TraceCapture
		want []bool // whether each run slot holds a sink
	}{{"a", tcA, []bool{true}}, {"b", tcB, []bool{true, false, true}}} {
		var got []bool
		for _, s := range c.tc.sinks {
			got = append(got, s != nil)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("capture %s holds sinks %v, want %v", c.name, got, c.want)
		}
	}
}
