// Root benchmark harness: one benchmark per table and figure of the
// paper. Each bench regenerates its artifact via the experiments package
// and fails when one of the report's checks does not hold, so that
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation and tests its claims. The rendered
// tables themselves come from `go run ./cmd/rbexp`.
package rbpebble_test

import (
	"strings"
	"testing"

	"rbpebble/internal/experiments"
)

func benchReport(b *testing.B, run func() *experiments.Report) {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = run()
	}
	if rep == nil || len(rep.Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
	if failed := rep.Failed(); len(failed) > 0 {
		b.Fatalf("failing checks: %s", strings.Join(failed, "; "))
	}
	b.ReportMetric(float64(len(rep.Rows)), "rows")
}

// BenchmarkTable1 regenerates the per-model operation cost table.
func BenchmarkTable1(b *testing.B) {
	benchReport(b, experiments.Table1)
}

// BenchmarkTable2 regenerates the measured model-property summary.
func BenchmarkTable2(b *testing.B) {
	benchReport(b, experiments.Table2)
}

// BenchmarkFig1CD regenerates the Figure 1 CD-gadget cost claim
// (free at R', Ω(h) with one pebble fewer), using the exact solver.
func BenchmarkFig1CD(b *testing.B) {
	benchReport(b, func() *experiments.Report {
		return experiments.Fig1CD(experiments.DefaultFig1Params())
	})
}

// BenchmarkFig2H2C regenerates the Figure 2 H2C inherent-cost claim
// (exact optimum = 4 transfers).
func BenchmarkFig2H2C(b *testing.B) {
	benchReport(b, experiments.Fig2H2C)
}

// BenchmarkFig4Tradeoff regenerates the Figure 3/4 time-memory tradeoff
// diagram across all four models; its checks hold the strategy's drop
// per added red pebble to the paper's 2n.
func BenchmarkFig4Tradeoff(b *testing.B) {
	benchReport(b, func() *experiments.Report {
		return experiments.Fig4Tradeoff(experiments.DefaultTradeoffParams())
	})
}

// BenchmarkThm2HamPath regenerates the Theorem 2 NP-hardness table:
// reduction thresholds vs the Hamiltonian Path oracle.
func BenchmarkThm2HamPath(b *testing.B) {
	benchReport(b, func() *experiments.Report {
		return experiments.Thm2HamPath(experiments.DefaultThm2Params())
	})
}

// BenchmarkThm3VertexCover regenerates the Theorem 3 inapproximability
// slope (cost = 2k'·|VC| + O(N²)).
func BenchmarkThm3VertexCover(b *testing.B) {
	benchReport(b, func() *experiments.Report {
		return experiments.Thm3VertexCover(experiments.DefaultThm3Params())
	})
}

// BenchmarkThm4Greedy regenerates the Figure 8 greedy-vs-optimal
// separation; its checks hold that the ratio grows with k'.
func BenchmarkThm4Greedy(b *testing.B) {
	benchReport(b, func() *experiments.Report {
		return experiments.Thm4Greedy(experiments.DefaultThm4Params())
	})
}

// BenchmarkLemma1Length regenerates the optimal-pebbling-length bound
// measurements.
func BenchmarkLemma1Length(b *testing.B) {
	benchReport(b, func() *experiments.Report {
		return experiments.Lemma1Length(experiments.DefaultLemma1Params())
	})
}

// BenchmarkAppendixCConventions regenerates the convention-shift table.
func BenchmarkAppendixCConventions(b *testing.B) {
	benchReport(b, experiments.Conventions)
}

// BenchmarkAblationEviction compares eviction policies on HPC workloads.
func BenchmarkAblationEviction(b *testing.B) {
	benchReport(b, experiments.AblationEviction)
}

// BenchmarkAblationExactPruning measures the exact solver's pruning.
func BenchmarkAblationExactPruning(b *testing.B) {
	benchReport(b, experiments.AblationExactPruning)
}

// BenchmarkAblationGreedyRules compares the §8 greedy rule variants.
func BenchmarkAblationGreedyRules(b *testing.B) {
	benchReport(b, experiments.AblationGreedyRules)
}

// BenchmarkExtensionMultilevel regenerates the multi-level hierarchy
// extension table (related work [4]).
func BenchmarkExtensionMultilevel(b *testing.B) {
	benchReport(b, experiments.Multilevel)
}

// BenchmarkExtensionParallel regenerates the multi-processor pebbling
// extension table (related work [8]).
func BenchmarkExtensionParallel(b *testing.B) {
	benchReport(b, experiments.ParallelPebbling)
}
