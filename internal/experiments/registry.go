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

// Experiment is one registered paper experiment: a stable CLI name plus a
// runner that builds its own isolated deterministic sim and returns a
// JSON-able Result. Runners are pure functions of (seed baked in, Scale), so
// the harness may execute any set of them concurrently.
type Experiment interface {
	Name() string
	Run(sc Scale) Result
}

type expFunc struct {
	name string
	run  func(Scale) Result
}

func (e expFunc) Name() string        { return e.name }
func (e expFunc) Run(sc Scale) Result { return e.run(sc) }

// NewExperiment wraps a runner function as an Experiment; used by the
// registry below and by harness tests that need ad-hoc experiments.
func NewExperiment(name string, run func(Scale) Result) Experiment {
	return expFunc{name: name, run: run}
}

// Registry returns every experiment in canonical presentation order (the
// order of figures and tables in the paper, then chaos and the ablations).
func Registry() []Experiment {
	return []Experiment{
		NewExperiment("fig3", Fig3Result),
		NewExperiment("table1", Table1Result),
		NewExperiment("fig5a", Fig5aResult),
		NewExperiment("fig10", Fig10Result),
		NewExperiment("fig11", Fig11Result),
		NewExperiment("table2", Table2Result),
		NewExperiment("fig12", Fig12Result),
		NewExperiment("table3", Table3Result),
		NewExperiment("fig13", Fig13Result),
		NewExperiment("fig14", Fig14Result),
		NewExperiment("chaos", ChaosSweepResult),
		NewExperiment("ablation", AblationResult),
		NewExperiment("qos", QoSResult),
		NewExperiment("fpindex", FPIndexResult),
		NewExperiment("scale", ScaleResult),
		NewExperiment("tenants", TenantsResult),
		NewExperiment("redundancy", RedundancyResult),
	}
}

// Names lists the registered experiment names in canonical order.
func Names() []string {
	exps := Registry()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name()
	}
	return names
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}
