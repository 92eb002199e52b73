// Package experiment regenerates every evaluation result in the paper (§6)
// plus the ablations listed in DESIGN.md. Each runner returns structured
// rows and can print them as an aligned text table or CSV, so cmd/aqua-exp
// and the benchmark suite share one implementation.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	E0    minimum response time (§6 text, ≈3.5 ms on the paper's testbed)
//	Fig3  selection-algorithm overhead vs replicas × window size
//	Fig4  mean replicas selected vs deadline × requested probability
//	Fig5  observed timing-failure probability vs deadline × probability
//	A1-A7 baselines, window sensitivity, δ compensation, crash tolerance,
//	      multi-failure, queue-aware model, σ-reading sensitivity
package experiment

import (
	"fmt"
	"io"
	"strings"

	"aqua/internal/sim"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString("== " + t.Title + " ==\n")
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (quotes are not needed for the numeric
// and identifier cells these tables contain).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ",") + "\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// pool returns n simulated replicas built from one spec: every experiment's
// uniform replica pool.
func pool(n int, spec sim.ReplicaSpec) []sim.ReplicaSpec {
	replicas := make([]sim.ReplicaSpec, n)
	for i := range replicas {
		replicas[i] = spec
	}
	return replicas
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
