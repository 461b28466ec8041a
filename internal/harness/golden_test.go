package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dedupstore/internal/experiments"
)

// sampleName is a registered experiment: CheckGolden reports a snapshot of
// an unregistered one as an orphan.
const sampleName = "fig10"

func sampleResult() experiments.Result {
	return experiments.Result{
		Name: sampleName,
		Tables: []experiments.Table{{
			Title:   "Figure X: sample",
			Columns: []string{"workload", "lat(ms)", "cpu"},
			Rows: [][]string{
				{"randwrite", "9.1", "0.3"},
				{"randread", "2.2", "0.1"},
			},
			Notes: []string{"shape target: flat"},
		}},
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res := []experiments.Result{sampleResult()}
	if err := WriteGolden(dir, res); err != nil {
		t.Fatal(err)
	}
	diffs, err := CheckGolden(dir, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("clean round-trip produced diffs: %v", diffs)
	}
}

// TestGoldenSingleCellPerturbation is the CI gate's core property: changing
// exactly one cell of a snapshotted result yields exactly one diff carrying
// the precise coordinates and both values.
func TestGoldenSingleCellPerturbation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteGolden(dir, []experiments.Result{sampleResult()}); err != nil {
		t.Fatal(err)
	}
	got := sampleResult()
	got.Tables[0].Rows[0][1] = "7.3" // the fig10 rate-controller shift, in miniature
	diffs, err := CheckGolden(dir, []experiments.Result{got})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want exactly 1: %v", len(diffs), diffs)
	}
	d := diffs[0]
	if d.Experiment != sampleName || d.Row != 0 || d.Col != 1 ||
		d.RowLabel != "randwrite" || d.ColName != "lat(ms)" ||
		d.Golden != "9.1" || d.Got != "7.3" {
		t.Errorf("diff coordinates wrong: %+v", d)
	}
	s := d.String()
	for _, want := range []string{sampleName, "Figure X: sample", "randwrite", "lat(ms)", `"9.1"`, `"7.3"`} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered diff missing %q: %s", want, s)
		}
	}
}

func TestGoldenStructuralDiffs(t *testing.T) {
	dir := t.TempDir()
	if err := WriteGolden(dir, []experiments.Result{sampleResult()}); err != nil {
		t.Fatal(err)
	}

	t.Run("missing snapshot", func(t *testing.T) {
		other := sampleResult()
		other.Name = "figY"
		diffs, err := CheckGolden(dir, []experiments.Result{other})
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || !strings.Contains(diffs[0].String(), "missing") {
			t.Errorf("missing snapshot not reported: %v", diffs)
		}
	})

	t.Run("row count drift", func(t *testing.T) {
		got := sampleResult()
		got.Tables[0].Rows = got.Tables[0].Rows[:1]
		diffs, err := CheckGolden(dir, []experiments.Result{got})
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || diffs[0].Row != -1 || !strings.Contains(diffs[0].String(), "rows") {
			t.Errorf("row-count drift not reported structurally: %v", diffs)
		}
	})

	t.Run("column rename", func(t *testing.T) {
		got := sampleResult()
		got.Tables[0].Columns[1] = "latency(ms)"
		diffs, err := CheckGolden(dir, []experiments.Result{got})
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || !strings.Contains(diffs[0].String(), "columns") {
			t.Errorf("column drift not reported: %v", diffs)
		}
	})

	t.Run("note change", func(t *testing.T) {
		got := sampleResult()
		got.Tables[0].Notes[0] = "shape target: rising"
		diffs, err := CheckGolden(dir, []experiments.Result{got})
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || !strings.Contains(diffs[0].String(), "notes") {
			t.Errorf("note drift not reported: %v", diffs)
		}
	})

	t.Run("table count drift", func(t *testing.T) {
		got := sampleResult()
		got.Tables = append(got.Tables, experiments.Table{Title: "extra"})
		diffs, err := CheckGolden(dir, []experiments.Result{got})
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || !strings.Contains(diffs[0].String(), "tables") {
			t.Errorf("table-count drift not reported: %v", diffs)
		}
	})
}

// TestGoldenOrphanSnapshot: a snapshot whose experiment is no longer
// registered is reported even when the check covers only other experiments,
// so a deleted experiment's golden cannot linger.
func TestGoldenOrphanSnapshot(t *testing.T) {
	dir := t.TempDir()
	orphan := sampleResult()
	orphan.Name = "retired"
	if err := WriteGolden(dir, []experiments.Result{sampleResult(), orphan}); err != nil {
		t.Fatal(err)
	}
	for _, subset := range [][]experiments.Result{{sampleResult()}, nil} {
		diffs, err := CheckGolden(dir, subset)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || diffs[0].Experiment != "retired" || !strings.Contains(diffs[0].String(), "no registered experiment") {
			t.Errorf("checking %d result(s): orphan snapshot not reported: %v", len(subset), diffs)
		}
	}
}

// TestGoldenNonCanonicalSnapshot: a snapshot that parses to the same value
// but isn't byte-canonical (e.g. hand-edited compact JSON) is flagged, so
// checked-in files always stay regenerable via -golden write.
func TestGoldenNonCanonicalSnapshot(t *testing.T) {
	dir := t.TempDir()
	res := sampleResult()
	compact, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, res.Name+".json"), compact, 0o644); err != nil {
		t.Fatal(err)
	}
	diffs, err := CheckGolden(dir, []experiments.Result{res})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || !strings.Contains(diffs[0].String(), "canonical") {
		t.Errorf("non-canonical snapshot not flagged: %v", diffs)
	}
}
