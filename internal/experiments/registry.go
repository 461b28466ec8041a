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
// function that builds its tables. Run builds every simulation through
// Runs, each an isolated deterministic sim, so a sweep may execute the runs
// of any set of experiments concurrently.
type Experiment struct {
	Name string
	Run  func(Scale) []Table
}

// Registry returns every experiment in canonical presentation order (the
// order of figures and tables in the paper, then chaos and the ablations).
func Registry() []Experiment {
	return []Experiment{
		{"fig3", fig3},
		{"table1", table1},
		{"fig5a", fig5a},
		{"fig10", fig10},
		{"fig11", fig11},
		{"table2", table2},
		{"fig12", fig12},
		{"table3", table3},
		{"fig13", fig13},
		{"fig14", fig14},
		{"chaos", func(sc Scale) []Table { return ChaosTables(ChaosSeeded(sc, 811)) }},
		{"ablation", ablationTables},
		{"qos", qosMatrix},
		{"fpindex", fpindexTables},
		{"scale", scaleSweep},
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
