// Package experiments implements the per-theorem reproduction harness:
// each experiment Ei builds sketches over a family/size sweep, measures
// the quantity the corresponding theorem bounds, and reports it next to
// the bound. cmd/sketchbench prints the tables (and writes them as JSON),
// and TestAllExperimentsQuick requires every bound to hold.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result. Its JSON form is the
// per-experiment record of cmd/sketchbench's -json report.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Failures collects bound violations; empty means the paper's claim
	// held on every configuration.
	Failures []string `json:"failures,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Failf records a bound violation.
func (t *Table) Failf(format string, args ...any) {
	t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
}

// OK reports whether every checked bound held.
func (t *Table) OK() bool { return len(t.Failures) == 0 }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, f := range t.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	if t.OK() {
		b.WriteString("all bounds held\n")
	}
	return b.String()
}

func f1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func i64toa(v int64) string { return fmt.Sprintf("%d", v) }
