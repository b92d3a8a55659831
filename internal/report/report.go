// Package report renders experiment results as aligned text, markdown and
// JSON tables, so every paper table and figure can be regenerated as text.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// FormatMetric renders a metric value with a fixed number of decimals —
// the single formatting path for every numeric cell in campaign matrices
// and report tables, so text, markdown and JSON renderings of the same
// value can never drift apart.
func FormatMetric(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// FormatInterval renders "v ± half" at the given precision; a zero or
// negative half-width degrades to the plain metric (no error bar known).
func FormatInterval(v, half float64, prec int) string {
	if half <= 0 {
		return FormatMetric(v, prec)
	}
	return FormatMetric(v, prec) + " ± " + FormatMetric(half, prec)
}

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, r := range t.Rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "**%s**\n\n", t.Title)
	}
	fmt.Fprintf(&sb, "| %s |\n", strings.Join(t.Headers, " | "))
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&sb, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "| %s |\n", strings.Join(r, " | "))
	}
	return sb.String()
}

// JSON renders the table as indented JSON: an object with "title",
// "headers" and "rows", all cells as strings. Encoding is deterministic
// (field order is fixed, cells are pre-formatted strings), so two tables
// with equal contents render byte-identically — the property the campaign
// tier relies on to compare resumed and farmed runs.
func (t *Table) JSON() string {
	doc := struct {
		Title   string     `json:"title,omitempty"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.Title, t.Headers, t.Rows}
	if doc.Rows == nil {
		doc.Rows = [][]string{}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// Strings always marshal; a failure is a programming error.
		panic(fmt.Sprintf("report: marshaling table: %v", err))
	}
	return string(b) + "\n"
}
