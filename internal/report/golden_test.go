package report

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// golden compares got against testdata/<name>.golden, rewriting the file
// when the test runs with -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/report -update` to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// fixtureTable builds a deterministic table exercising alignment: ragged
// cell widths, a dropped extra cell, a padded short row and formatted cells.
func fixtureTable() *Table {
	t := NewTable("Figure 0: fixture selection", "benchmark", "barrierpoints", "error (%)")
	t.AddRow("npb-ft", "9", "0.3")
	t.AddRow("parsec-bodytrack", "12", "1.25", "dropped")
	t.AddRow("npb-is")
	t.AddRow("npb-sp", fmt.Sprintf("%d", 17), fmt.Sprintf("%.2f", 0.51))
	return t
}

func TestGoldenTableRender(t *testing.T) {
	golden(t, "table_render", fixtureTable().String())
}

func TestGoldenTableNoTitle(t *testing.T) {
	tbl := fixtureTable()
	tbl.Title = ""
	golden(t, "table_no_title", tbl.String())
}

func TestGoldenTableMarkdown(t *testing.T) {
	golden(t, "table_markdown", fixtureTable().Markdown())
}

func TestGoldenTableJSON(t *testing.T) {
	golden(t, "table_json", fixtureTable().JSON())
}

func TestGoldenTableJSONEmpty(t *testing.T) {
	golden(t, "table_json_empty", NewTable("", "a", "b").JSON())
}
