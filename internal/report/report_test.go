package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Title", "a", "bbbb")
	tbl.AddRow("x", "1")
	tbl.AddRow("longer", "2")
	out := tbl.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "longer") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableRowClamping(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("1", "2", "3") // extra cell dropped
	tbl.AddRow("only")        // short row padded
	if len(tbl.Rows[0]) != 2 || len(tbl.Rows[1]) != 2 {
		t.Errorf("rows not normalized: %v", tbl.Rows)
	}
	if tbl.Rows[1][1] != "" {
		t.Error("missing cell not empty")
	}
}

func TestMarkdown(t *testing.T) {
	tbl := NewTable("T", "a", "b")
	tbl.AddRow("1", "2")
	md := tbl.Markdown()
	for _, want := range []string{"**T**", "| a | b |", "| --- | --- |", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestFormatMetric(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		prec int
		want string
	}{
		{1.23456, 2, "1.23"},
		{1.235, 2, "1.24"},
		{-0.5, 3, "-0.500"},
		{0, 1, "0.0"},
		{1e6, 0, "1000000"},
	} {
		if got := FormatMetric(tc.v, tc.prec); got != tc.want {
			t.Errorf("FormatMetric(%v, %d) = %q, want %q", tc.v, tc.prec, got, tc.want)
		}
	}
}

func TestFormatInterval(t *testing.T) {
	if got, want := FormatInterval(12.345, 0.067, 2), "12.35 ± 0.07"; got != want {
		t.Errorf("FormatInterval = %q, want %q", got, want)
	}
	// No known error bar degrades to the plain metric.
	if got, want := FormatInterval(12.345, 0, 2), "12.35"; got != want {
		t.Errorf("FormatInterval with zero half = %q, want %q", got, want)
	}
	if got, want := FormatInterval(12.345, -1, 2), "12.35"; got != want {
		t.Errorf("FormatInterval with negative half = %q, want %q", got, want)
	}
}
