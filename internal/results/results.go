// Package results renders experiment output: aligned text tables for
// terminal inspection and CSV for plotting. The reproduction harness
// (cmd/repro) writes one artifact per paper table/figure through this
// package.
package results

import (
	"fmt"
	"io"
	"strings"

	"twolm/internal/telemetry"
)

// Table is a simple column-oriented result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// widths computes per-column display widths.
func (t *Table) widths() []int {
	w := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		w[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// Fprint writes the table in aligned text form.
func (t *Table) Fprint(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title))); err != nil {
			return err
		}
	}
	widths := t.widths()
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, x := range widths {
		total += x + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Fprint(&sb)
	return sb.String()
}

// WriteCSV emits the table as CSV (headers + rows), delegating to the
// repository's one CSV convention in internal/telemetry: cells
// containing commas, quotes or newlines are quoted. The emitted bytes
// are identical to the quoting logic this method carried before the
// telemetry package existed.
func (t *Table) WriteCSV(w io.Writer) error {
	return telemetry.WriteCSVRows(w, t.Headers, t.Rows)
}
