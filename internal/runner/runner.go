// Package runner is the experiment harness: it defines one runnable
// experiment per table and figure of the reproduced paper, each producing a
// result table with the same rows and series the paper plots (throughput in
// images/second, speedups, or Horovod profiling counters). It also holds
// the paper's practical payload: BestConfig, the search for the best
// process/thread configuration of a model on a platform (Section IX's
// tuning guidelines, automated).
package runner

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Row is one series of a result table.
type Row struct {
	Name   string
	Values []float64
}

// Table is the result of one experiment: a labeled grid in the shape of
// the paper's figure.
type Table struct {
	ID       string
	Title    string
	PaperRef string   // e.g. "Figure 6(a)"
	XLabel   string   // meaning of the columns
	Columns  []string // column (x tick) labels
	Unit     string   // unit of the cell values
	Rows     []Row
	Notes    []string // headline observations, paper-vs-measured
}

// AddNote appends a formatted observation to the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Cell returns the value at (row name, column index).
func (t *Table) Cell(row string, col int) (float64, bool) {
	for _, r := range t.Rows {
		if r.Name == row && col >= 0 && col < len(r.Values) {
			return r.Values[col], true
		}
	}
	return 0, false
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s [%s]\n", t.ID, t.Title, t.PaperRef)
	if t.Unit != "" {
		fmt.Fprintf(w, "unit: %s\n", t.Unit)
	}

	nameW := len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
		for _, r := range t.Rows {
			if i < len(r.Values) {
				if l := len(formatCell(r.Values[i])); l > colW[i] {
					colW[i] = l
				}
			}
		}
	}
	fmt.Fprintf(w, "%-*s", nameW, t.XLabel)
	for i, c := range t.Columns {
		fmt.Fprintf(w, "  %*s", colW[i], c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", lineWidth(nameW, colW)))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", nameW, r.Name)
		for i, v := range r.Values {
			fmt.Fprintf(w, "  %*s", colW[i], formatCell(v))
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// RenderMarkdown writes the table as a GitHub-flavored markdown section.
func (t *Table) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "*%s*", t.PaperRef)
	if t.Unit != "" {
		fmt.Fprintf(w, " — unit: %s", t.Unit)
	}
	fmt.Fprint(w, "\n\n")
	fmt.Fprintf(w, "| %s |", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %s |", c)
	}
	fmt.Fprint(w, "\n|---|")
	for range t.Columns {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |", r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(w, " %s |", formatCell(v))
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

func lineWidth(nameW int, colW []int) int {
	w := nameW
	for _, c := range colW {
		w += 2 + c
	}
	return w
}

func formatCell(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e7:
		return fmt.Sprintf("%.0f", v)
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func() (*Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns all experiment IDs in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Get finds an experiment by ID.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	sorted := IDs()
	sort.Strings(sorted)
	return Experiment{}, fmt.Errorf("runner: unknown experiment %q (have %s)", id, strings.Join(sorted, ", "))
}
