package exp

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is a simple aligned-text artifact: one per figure/table the harness
// regenerates.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n== %s ==\n", t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Headers, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// fprintTables renders the tables in order, stopping at the first error.
func fprintTables(w io.Writer, tabs ...*Table) error {
	for _, t := range tabs {
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

// CSV renders the table as comma-separated values (quotes are not needed:
// cells are numbers and identifiers).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// f2 formats a float with two decimals; NaN renders as "-".
func f2(v float64) string {
	if v != v {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// f3 formats a float with three decimals; NaN renders as "-".
func f3(v float64) string {
	if v != v {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
