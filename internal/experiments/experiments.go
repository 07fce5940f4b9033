// Package experiments regenerates every table and figure of Papp &
// Wattenhofer (SPAA 2020) from the library's implementations: the model
// summaries (Tables 1-2), the gadget cost claims (Figures 1-2), the
// time-memory tradeoff diagram (Figures 3-4, Appendix A.1), the
// NP-hardness reduction thresholds (Figure 5 / Theorem 2), the Vertex
// Cover inapproximability slope (Figures 6-7 / Theorem 3), the greedy
// separation grid (Figure 8 / Theorem 4), the Lemma 1 pebbling-length
// bound, the Appendix C convention shifts, and ablations of the solver
// design choices.
//
// Every experiment returns a Report: a table of rows plus the checks
// that test the paper's claim against those rows. Each check is computed
// from the numbers the constructor has just measured, and the report's
// verdict is derived from the checks alone. The Registry names every
// experiment once, with its ID, title and default constructor; reports
// render as aligned text for the rbexp CLI and the root benchmark
// harness.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Check is one statement of a report's claim, tested on its rows.
type Check struct {
	Name  string
	Holds bool
}

// Report is one regenerated table or figure.
type Report struct {
	// ID names the artifact in the paper ("Table 1", "Figure 4", ...)
	// and Title describes what is measured; both come from the Registry.
	ID, Title string
	// Claim restates the paper's prediction.
	Claim string
	// Header labels the columns.
	Header []string
	// Rows holds the measurements.
	Rows [][]string
	// Checks test the claim against the rows.
	Checks []Check
}

// check records whether the named statement holds.
func (r *Report) check(name string, holds bool) {
	r.Checks = append(r.Checks, Check{Name: name, Holds: holds})
}

// Failed lists the names of the checks that do not hold.
func (r *Report) Failed() []string {
	var failed []string
	for _, c := range r.Checks {
		if !c.Holds {
			failed = append(failed, c.Name)
		}
	}
	return failed
}

// Render formats the report as aligned text: the table, one line per
// check, and a verdict derived from the checks.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	if r.Claim != "" {
		fmt.Fprintf(&b, "paper claim: %s\n", r.Claim)
	}
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	if len(r.Header) > 0 {
		fmt.Fprintln(tw, strings.Join(r.Header, "\t"))
	}
	for _, row := range r.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.Holds {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "check %s %s\n", mark, c.Name)
	}
	if failed := r.Failed(); len(failed) > 0 {
		fmt.Fprintf(&b, "verdict: FAILED: %s\n", strings.Join(failed, "; "))
	} else {
		fmt.Fprintf(&b, "verdict: all checks hold (%d)\n", len(r.Checks))
	}
	return b.String()
}

// WriteTo writes the rendered report followed by a blank line.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, r.Render()+"\n")
	return int64(n), err
}

// itoa and ftoa keep row building terse.
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string { return fmt.Sprintf("%.2f", v) }
func btoa(v bool) string    { return fmt.Sprintf("%t", v) }

// Experiment is one registry entry.
type Experiment struct {
	ID, Title string
	build     func() *Report
}

// Build runs the experiment with its default parameters and labels the
// report with the entry's ID and title.
func (e Experiment) Build() *Report {
	rep := e.build()
	rep.ID, rep.Title = e.ID, e.Title
	return rep
}

// Registry lists every experiment in paper order. IDs and titles are
// written only here, so listing or selecting experiments runs none of
// them; the full parameter sweeps live in the individual constructors.
var Registry = []Experiment{
	{"Table 1", "Cost of operations in different models", Table1},
	{"Table 2", "Basic properties of the models (measured)", Table2},
	{"Figure 1", "CD gadget (constant indegree)", func() *Report { return Fig1CD(DefaultFig1Params()) }},
	{"Figure 2", "H2C gadget (hard-to-compute sources)", Fig2H2C},
	{"Figures 3+4 (and Appendix A.1)", "Time-memory tradeoff: the gadget's strategy cost", func() *Report { return Fig4Tradeoff(DefaultTradeoffParams()) }},
	{"Theorem 2 (Figure 5)", "NP-hardness: Hamiltonian Path → Pebbling", func() *Report { return Thm2HamPath(DefaultThm2Params()) }},
	{"Theorem 3 (Figures 6-7)", "UGC inapproximability: Vertex Cover → Pebbling", func() *Report { return Thm3VertexCover(DefaultThm3Params()) }},
	{"Theorem 4 (Figure 8)", "Greedy vs optimal on the misguidance grid", func() *Report { return Thm4Greedy(DefaultThm4Params()) }},
	{"Lemma 1", "Length of optimal pebblings", func() *Report { return Lemma1Length(DefaultLemma1Params()) }},
	{"Appendix C", "Alternative starting/finishing conventions", Conventions},
	{"Ablation A", "Eviction policy within a fixed topological order", AblationEviction},
	{"Ablation B", "Exact solver pruning and the A* lower bound (oneshot)", AblationExactPruning},
	{"Ablation C", "Greedy rule variants (§8)", AblationGreedyRules},
	{"Ablation E", "Anytime certified interval vs. deadline (oneshot)", func() *Report { return AblationAnytime(DefaultAnytimeParams()) }},
	{"Extension — multilevel", "Multi-level hierarchy generalization (related work [4])", Multilevel},
	{"Extension — parallel", "Multi-processor pebbling (related work [8])", ParallelPebbling},
}

// All builds every registered experiment in paper order.
func All() []*Report {
	reports := make([]*Report, len(Registry))
	for i, e := range Registry {
		reports[i] = e.Build()
	}
	return reports
}

// RunAll renders every registered report to w. It returns an error
// naming the reports with a failing check, after rendering them all.
func RunAll(w io.Writer) error {
	var failed []string
	for _, e := range Registry {
		rep := e.Build()
		if _, err := rep.WriteTo(w); err != nil {
			return err
		}
		if len(rep.Failed()) > 0 {
			failed = append(failed, rep.ID)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("experiments: failing checks in %s", strings.Join(failed, ", "))
	}
	return nil
}
