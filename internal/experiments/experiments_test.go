package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// holds fails the test unless rep has the expected number of rows, at
// least one check, and every check holds.
func holds(t *testing.T, rep *Report, rows int) {
	t.Helper()
	if len(rep.Rows) != rows || len(rep.Checks) == 0 {
		t.Fatalf("%d rows (want %d), %d checks:\n%s", len(rep.Rows), rows, len(rep.Checks), rep.Render())
	}
	if failed := rep.Failed(); len(failed) > 0 {
		t.Fatalf("failing checks: %s\n%s", strings.Join(failed, "; "), rep.Render())
	}
}

func TestTable1(t *testing.T) {
	rep := Table1()
	holds(t, rep, 4)
	if !strings.Contains(rep.Render(), "nodel") {
		t.Fatal("render missing model names")
	}
}

func TestTable2Invariants(t *testing.T) { holds(t, Table2(), 4) }
func TestFig1(t *testing.T)             { holds(t, Fig1CD(Fig1Params{GroupSize: 3, Heights: []int{1, 3}}), 2) }
func TestFig2(t *testing.T)             { holds(t, Fig2H2C(), 3) }
func TestFig4Monotone(t *testing.T)     { holds(t, Fig4Tradeoff(TradeoffParams{D: 3, Chain: 30}), 4) }
func TestThm2AllVerified(t *testing.T) {
	holds(t, Thm2HamPath(Thm2Params{RandomN: []int{6}, Seed: 1}), 9)
}
func TestThm3SlopeConverges(t *testing.T) {
	holds(t, Thm3VertexCover(Thm3Params{KPrimes: []int{10, 40}}), 6)
}
func TestThm4SeparationGrows(t *testing.T) {
	holds(t, Thm4Greedy(Thm4Params{L: 3, KPrimes: []int{8, 32}}), 2)
}
func TestLemma1Bounded(t *testing.T)           { holds(t, Lemma1Length(Lemma1Params{Seeds: []int64{1, 2}}), 6) }
func TestConventionsWithinBounds(t *testing.T) { holds(t, Conventions(), 4) }
func TestMultilevelExperiment(t *testing.T)    { holds(t, Multilevel(), 3) }

func TestAblations(t *testing.T) {
	holds(t, AblationEviction(), 4)
	holds(t, AblationExactPruning(), 4)
	holds(t, AblationGreedyRules(), 6)
}

// TestAblationAnytime runs the ladder with a short top deadline; the
// certified-interval checks hold at any scale. A positive lower bound on
// the top rung depends on host speed, so no check reads it, but at 60ms
// every engine has popped states: fft(3) R=3's root bound is 0, so only
// a sub-millisecond rung may certify [0, upper].
func TestAblationAnytime(t *testing.T) {
	rep := AblationAnytime(AnytimeParams{Deadline: 60 * time.Millisecond})
	holds(t, rep, 4)
	if lo, err := strconv.Atoi(rep.Rows[2][2]); err != nil || lo <= 0 {
		t.Fatalf("top-rung interval %v certifies nothing", rep.Rows[2])
	}
}

// TestRegistry checks that IDs are unique and that constructors leave
// ID and Title unset: the registry entry is their only source, so what
// rbexp -list prints without running anything is what each report
// carries. Every check holds on the default parameters.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if e.ID == "" || e.Title == "" || seen[e.ID] {
			t.Fatalf("registry entry %q/%q: empty or repeated", e.ID, e.Title)
		}
		seen[e.ID] = true
		rep := e.build()
		if rep.ID != "" || rep.Title != "" {
			t.Errorf("%s: constructor sets its own ID or title", e.ID)
		}
		t.Run(e.ID, func(t *testing.T) { holds(t, rep, len(rep.Rows)) })
	}
}

func TestRunAllRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range Registry {
		if !strings.Contains(out, "=== "+e.ID+" — "+e.Title+" ===\n") {
			t.Fatalf("RunAll output missing %q", e.ID)
		}
	}
	if n := strings.Count(out, "\nverdict: all checks hold "); n != len(Registry) {
		t.Fatalf("%d of %d verdicts say all checks hold", n, len(Registry))
	}
}
