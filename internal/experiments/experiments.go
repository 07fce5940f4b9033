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
// Every experiment returns a Report: a table of rows plus commentary
// comparing measurement against the paper's claim. Reports render as
// aligned text for the rbexp CLI and the root benchmark harness.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// ExactParallelism, when set > 1, makes every exact solve inside the
// harness expand states with that many hash-sharded workers of the
// asynchronous HDA* engine (forwarded to solve.ExactOptions.Parallel).
// The regenerated costs are identical — only wall-clock time changes.
// Experiments that publish search-effort counters (Ablations B and D)
// always solve with their own fixed configurations so their
// states-expanded columns stay comparable. The rbexp CLI exposes it as
// -exact-workers.
var ExactParallelism int

// Report is one regenerated table or figure.
type Report struct {
	// ID names the artifact in the paper ("Table 1", "Figure 4", ...).
	ID string
	// Title describes what is being measured.
	Title string
	// Claim restates the paper's prediction.
	Claim string
	// Header labels the columns.
	Header []string
	// Rows holds the measurements.
	Rows [][]string
	// Verdict summarizes measurement vs. claim.
	Verdict string
}

// Render formats the report as aligned text.
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
	if r.Verdict != "" {
		fmt.Fprintf(&b, "verdict: %s\n", r.Verdict)
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

// All runs every experiment with its default (fast) parameters in paper
// order. The full parameter sweeps live in the individual constructors.
func All() []*Report {
	return []*Report{
		Table1(),
		Table2(),
		Fig1CD(DefaultFig1Params()),
		Fig2H2C(),
		Fig4Tradeoff(DefaultTradeoffParams()),
		Thm2HamPath(DefaultThm2Params()),
		Thm3VertexCover(DefaultThm3Params()),
		Thm4Greedy(DefaultThm4Params()),
		Lemma1Length(DefaultLemma1Params()),
		Conventions(),
		AblationEviction(),
		AblationExactPruning(),
		AblationGreedyRules(),
		AblationAsyncScaling(),
		AblationAnytime(),
		Multilevel(),
		ParallelPebbling(),
	}
}

// RunAll renders every report to w.
func RunAll(w io.Writer) error {
	for _, r := range All() {
		if _, err := r.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}
