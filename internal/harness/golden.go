package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dedupstore/internal/experiments"
)

// Golden snapshots: each experiment's canonical JSON result is checked in
// under testdata/golden/<name>.json. `dedupbench -golden check` re-runs the
// sweep and diffs cell by cell, so any PR that shifts a published number
// fails CI with the exact coordinates of the drift; `-golden write`
// regenerates the snapshots when a shift is intentional and reviewed.

// Diff is one divergence between a golden snapshot and a fresh result.
// Row/Col are 0-based indexes into the table body; Row == -1 marks a
// structural difference (missing snapshot, table/column/row-count drift).
type Diff struct {
	Experiment string
	Table      string
	Row, Col   int
	RowLabel   string // first cell of the row, e.g. the workload name
	ColName    string // column header
	Golden     string
	Got        string
}

func (d Diff) String() string {
	if d.Row < 0 {
		return fmt.Sprintf("%s: table %q: golden %s, got %s", d.Experiment, d.Table, d.Golden, d.Got)
	}
	return fmt.Sprintf("%s: table %q: row %d (%s) col %q: golden %q, got %q",
		d.Experiment, d.Table, d.Row, d.RowLabel, d.ColName, d.Golden, d.Got)
}

// WriteGolden persists each result as its golden snapshot at
// dir/<name>.json.
func WriteGolden(dir string, results []experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		data, err := r.CanonicalJSON()
		if err != nil {
			return fmt.Errorf("marshal %s: %w", r.Name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, r.Name+".json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// CheckGolden diffs fresh results against the snapshots in dir. A clean run
// returns (nil, nil); drift returns one Diff per divergent cell (plus
// structural diffs, and one per snapshot whose experiment is not
// registered). Only I/O and JSON errors are returned as error.
func CheckGolden(dir string, results []experiments.Result) ([]Diff, error) {
	var diffs []Diff
	for _, got := range results {
		path := filepath.Join(dir, got.Name+".json")
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			diffs = append(diffs, Diff{
				Experiment: got.Name, Table: "*", Row: -1,
				Golden: fmt.Sprintf("snapshot %s missing (run -golden write)", path),
				Got:    fmt.Sprintf("%d tables", len(got.Tables)),
			})
			continue
		} else if err != nil {
			return nil, err
		}
		var golden experiments.Result
		if err := json.Unmarshal(data, &golden); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		// The snapshot must also be byte-canonical: a hand-edited file that
		// parses to the same value still fails, keeping snapshots regenerable.
		if canon, err := golden.CanonicalJSON(); err == nil && !bytes.Equal(canon, data) {
			diffs = append(diffs, Diff{
				Experiment: got.Name, Table: "*", Row: -1,
				Golden: "snapshot not in canonical form", Got: "regenerate with -golden write",
			})
		}
		diffs = append(diffs, diffResult(golden, got)...)
	}
	// A snapshot no registered experiment writes is left over from a deleted
	// or renamed one. Report it on every check, subset runs included, so it
	// cannot outlive its experiment unnoticed.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		if _, ok := experiments.Lookup(name); !ok {
			diffs = append(diffs, Diff{
				Experiment: name, Table: "*", Row: -1,
				Golden: fmt.Sprintf("snapshot %s has no registered experiment", path),
				Got:    "nothing (delete the snapshot)",
			})
		}
	}
	return diffs, nil
}

func diffResult(golden, got experiments.Result) []Diff {
	var diffs []Diff
	if len(golden.Tables) != len(got.Tables) {
		diffs = append(diffs, Diff{
			Experiment: got.Name, Table: "*", Row: -1,
			Golden: fmt.Sprintf("%d tables", len(golden.Tables)),
			Got:    fmt.Sprintf("%d tables", len(got.Tables)),
		})
	}
	n := min(len(golden.Tables), len(got.Tables))
	for i := 0; i < n; i++ {
		diffs = append(diffs, diffTable(got.Name, golden.Tables[i], got.Tables[i])...)
	}
	return diffs
}

func diffTable(exp string, golden, got experiments.Table) []Diff {
	var diffs []Diff
	if golden.Title != got.Title {
		diffs = append(diffs, Diff{Experiment: exp, Table: golden.Title, Row: -1,
			Golden: fmt.Sprintf("title %q", golden.Title), Got: fmt.Sprintf("title %q", got.Title)})
		return diffs // cells of a renamed table aren't comparable
	}
	if !equalStrings(golden.Columns, got.Columns) {
		diffs = append(diffs, Diff{Experiment: exp, Table: golden.Title, Row: -1,
			Golden: "columns [" + strings.Join(golden.Columns, ", ") + "]",
			Got:    "columns [" + strings.Join(got.Columns, ", ") + "]"})
		return diffs
	}
	if !equalStrings(golden.Notes, got.Notes) {
		diffs = append(diffs, Diff{Experiment: exp, Table: golden.Title, Row: -1,
			Golden: "notes [" + strings.Join(golden.Notes, " | ") + "]",
			Got:    "notes [" + strings.Join(got.Notes, " | ") + "]"})
	}
	if len(golden.Rows) != len(got.Rows) {
		diffs = append(diffs, Diff{Experiment: exp, Table: golden.Title, Row: -1,
			Golden: fmt.Sprintf("%d rows", len(golden.Rows)),
			Got:    fmt.Sprintf("%d rows", len(got.Rows))})
	}
	rows := min(len(golden.Rows), len(got.Rows))
	for r := 0; r < rows; r++ {
		grow, nrow := golden.Rows[r], got.Rows[r]
		if len(grow) != len(nrow) {
			diffs = append(diffs, Diff{Experiment: exp, Table: golden.Title, Row: -1,
				Golden: fmt.Sprintf("row %d has %d cells", r, len(grow)),
				Got:    fmt.Sprintf("row %d has %d cells", r, len(nrow))})
			continue
		}
		for c := range grow {
			if grow[c] == nrow[c] {
				continue
			}
			d := Diff{Experiment: exp, Table: golden.Title, Row: r, Col: c,
				Golden: grow[c], Got: nrow[c]}
			if len(grow) > 0 {
				d.RowLabel = grow[0]
			}
			if c < len(golden.Columns) {
				d.ColName = golden.Columns[c]
			}
			diffs = append(diffs, d)
		}
	}
	return diffs
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// marshalCanonical renders v as indented JSON with a trailing newline and
// HTML escaping off — the shared canonical form for everything the harness
// writes to disk.
func marshalCanonical(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
