// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the motivating cost table of Figure 6, the
// greedy-convergence curves of Figure 10, the workload-sensitivity sweep
// of Figure 11, the union-distribution comparison of Figure 13, the
// repetition-split sweep of Figure 14, and the wildcard costs of Table 2
// — plus ablations for the design choices DESIGN.md calls out.
//
// Each experiment returns a Table whose rows mirror what the paper
// reports. Absolute numbers are in this repository's cost units; the
// comparisons the paper draws (who wins, by roughly what factor, where
// crossovers fall) are the reproduced artifact. EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// CSV renders the table as comma-separated values (header first).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		b.WriteString(c)
	}
	b.WriteByte('\n')
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.Name, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Notes)
	}
	return b.String()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.Name, t.Title)
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
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Runner produces one experiment. The context bounds its searches:
// cancellation or an expired deadline makes them return their anytime
// best-so-far rather than run to convergence.
type Runner func(ctx context.Context) (*Table, error)

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"fig6":               Fig6,
	"fig10":              Fig10,
	"fig11":              Fig11,
	"fig13":              Fig13,
	"fig14":              Fig14,
	"tab2":               Table2,
	"ablation-threshold": AblationThreshold,
	"ablation-si-vs-so":  AblationSIvsSO,
	"ablation-costmodel": AblationCostModel,
	"ablation-beam":      AblationBeam,
	"ablation-updates":   AblationUpdates,
}

// Names lists experiment ids in a stable order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id under a background context.
func Run(name string) (*Table, error) {
	return RunContext(context.Background(), name)
}

// RunContext executes one experiment by id; ctx bounds its searches.
func RunContext(ctx context.Context, name string) (*Table, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return r(ctx)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
