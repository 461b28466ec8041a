package experiments

import (
	"bytes"
	"encoding/json"
)

// Result is the machine-readable outcome of one experiment: the experiment's
// CLI name plus the same tables the CLI prints. Marshaling is canonical —
// struct field order is fixed, cells are the exact rendered strings, and no
// wall-clock timestamps appear — so a (seed, scale) pair always produces the
// same bytes and results can be golden-snapshotted and diffed by CI.
type Result struct {
	Name   string  `json:"name"`
	Tables []Table `json:"tables"`
}

// CanonicalJSON renders the result as indented JSON with a trailing newline,
// the exact bytes written to results/<name>.json and testdata/golden.
func (r Result) CanonicalJSON() ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Output renders the result the way the CLI prints it: every table in order.
func (r Result) Output() string {
	var b bytes.Buffer
	for _, t := range r.Tables {
		b.WriteString(t.String())
	}
	return b.String()
}

// Experiment is one registered paper experiment: a stable CLI name and the
// function that renders its tables. Run builds every simulation through
// Runs, each an isolated deterministic sim, so a sweep may execute the runs
// of any set of experiments concurrently.
type Experiment struct {
	Name string
	Run  func(Scale) []Table
}

// one is the Run of an experiment with one table: its rows, rendered.
func one[R any](rows func(Scale) R, render func(R) Table) func(Scale) []Table {
	return func(sc Scale) []Table { return []Table{render(rows(sc))} }
}

// Registry returns every experiment in canonical presentation order (the
// order of figures and tables in the paper, then chaos and the ablations).
func Registry() []Experiment {
	return []Experiment{
		{"fig3", one(Fig3, Fig3Table)},
		{"table1", one(Table1, Table1Table)},
		{"fig5a", one(Fig5a, Fig5aTable)},
		{"fig10", one(Fig10, Fig10Table)},
		{"fig11", one(Fig11, Fig11Table)},
		{"table2", one(Table2, Table2Table)},
		{"fig12", one(Fig12, Fig12Table)},
		{"table3", one(Table3, Table3Table)},
		{"fig13", one(Fig13, Fig13Table)},
		{"fig14", fig14Tables},
		{"chaos", func(sc Scale) []Table { return ChaosTables(ChaosSeeded(sc, 811)) }},
		{"ablation", ablationTables},
		{"qos", one(QoSMatrix, QoSMatrixTable)},
		{"fpindex", fpindexTables},
		{"scale", one(ScaleSweep, ScaleTable)},
		{"tenants", tenantsTables},
		{"redundancy", redundancyTables},
	}
}

// Names lists the registered experiment names in canonical order.
func Names() []string {
	var names []string
	for _, e := range Registry() {
		names = append(names, e.Name)
	}
	return names
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
