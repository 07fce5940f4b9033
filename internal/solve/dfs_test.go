package solve

import (
	"errors"
	"testing"
	"testing/quick"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

func TestExactDFSMatchesDijkstra(t *testing.T) {
	// Two independent exact algorithms must agree on the optimum.
	for seed := int64(0); seed < 8; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		for _, kind := range []pebble.ModelKind{pebble.Oneshot, pebble.NoDel} {
			p := prob(g, kind, r)
			a, err := Exact(p, ExactOptions{})
			if err != nil {
				t.Fatalf("seed %d %v dijkstra: %v", seed, kind, err)
			}
			b, err := ExactDFS(p, ExactDFSOptions{})
			if err != nil {
				t.Fatalf("seed %d %v dfs: %v", seed, kind, err)
			}
			if a.Result.Cost.Scaled(p.Model) != b.Result.Cost.Scaled(p.Model) {
				t.Fatalf("seed %d %v: dijkstra %v != dfs %v", seed, kind, a.Result.Cost, b.Result.Cost)
			}
		}
	}
}

func TestExactDFSRejectsUnsupportedModels(t *testing.T) {
	g := daggen.Chain(3)
	for _, kind := range []pebble.ModelKind{pebble.Base, pebble.CompCost} {
		if _, err := ExactDFS(prob(g, kind, 2), ExactDFSOptions{}); err == nil {
			t.Fatalf("%v accepted", kind)
		}
	}
}

func TestExactDFSVisitLimit(t *testing.T) {
	g := daggen.Pyramid(3)
	_, err := ExactDFS(prob(g, pebble.Oneshot, 3), ExactDFSOptions{MaxVisits: 3})
	if !errors.Is(err, ErrVisitLimit) {
		t.Fatalf("err = %v", err)
	}
}

// TestExactDFSVisitLimitStats checks the satellite contract: a
// visit-limited run reports its search stats (visits, iterations, best
// incumbent, threshold) alongside ErrVisitLimit instead of a bare
// error.
func TestExactDFSVisitLimitStats(t *testing.T) {
	g := daggen.Pyramid(4)
	p := prob(g, pebble.Oneshot, 3)
	var s ExactDFSStats
	_, err := ExactDFS(p, ExactDFSOptions{MaxVisits: 50, Stats: &s})
	if !errors.Is(err, ErrVisitLimit) {
		t.Fatalf("err = %v, want ErrVisitLimit", err)
	}
	if s.Visits <= 50-10 || s.Visits > 51 {
		t.Fatalf("stats.Visits = %d, want ~50", s.Visits)
	}
	if s.Iterations < 1 {
		t.Fatalf("stats.Iterations = %d", s.Iterations)
	}
	if s.Incumbent <= 0 {
		t.Fatalf("stats.Incumbent = %d, want the seeded upper bound", s.Incumbent)
	}
}

// TestIDAStarMatchesAStar cross-validates IDA* against the best-first
// solver on small instances in both supported models.
func TestIDAStarMatchesAStar(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		for _, kind := range []pebble.ModelKind{pebble.Oneshot, pebble.NoDel} {
			p := prob(g, kind, r)
			ref, err := Exact(p, ExactOptions{})
			if err != nil {
				t.Fatalf("seed %d %v astar: %v", seed, kind, err)
			}
			want := ref.Result.Cost.Scaled(p.Model)
			var s ExactDFSStats
			sol, err := ExactDFS(p, ExactDFSOptions{Stats: &s})
			if err != nil {
				t.Fatalf("seed %d %v ida-star: %v", seed, kind, err)
			}
			if got := sol.Result.Cost.Scaled(p.Model); got != want {
				t.Fatalf("seed %d %v ida-star: cost %d != astar %d", seed, kind, got, want)
			}
			if s.Incumbent != want {
				t.Fatalf("seed %d %v ida-star: stats incumbent %d != optimum %d", seed, kind, s.Incumbent, want)
			}
		}
	}
}

func TestRandomOrdersNeverWorseThanTopoBelady(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := daggen.RandomLayered(4, 5, 3, seed)
		p := prob(g, pebble.Oneshot, pebble.MinFeasibleR(g))
		tb, err := TopoBelady(p)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := RandomOrders(p, RandomOrdersOptions{Samples: 16, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if ro.Result.Cost.Transfers > tb.Result.Cost.Transfers {
			t.Fatalf("seed %d: sampling %d worse than TopoBelady %d",
				seed, ro.Result.Cost.Transfers, tb.Result.Cost.Transfers)
		}
	}
}

func TestRandomOrdersNeverBeatsExact(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		p := prob(g, pebble.Oneshot, pebble.MinFeasibleR(g))
		ex, err := Exact(p, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ro, err := RandomOrders(p, RandomOrdersOptions{Samples: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if ro.Result.Cost.Transfers < ex.Result.Cost.Transfers {
			t.Fatalf("seed %d: heuristic beat the exact optimum", seed)
		}
	}
}

func TestRandomOrdersDeterministicPerSeed(t *testing.T) {
	g := daggen.RandomLayered(4, 4, 2, 3)
	p := prob(g, pebble.Oneshot, pebble.MinFeasibleR(g))
	a, err := RandomOrders(p, RandomOrdersOptions{Samples: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomOrders(p, RandomOrdersOptions{Samples: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Cost != b.Result.Cost {
		t.Fatal("same seed, different result")
	}
}

// Property: both exact solvers agree on random small instances in the
// oneshot model (the strongest cross-validation in the suite).
func TestQuickExactSolversAgree(t *testing.T) {
	f := func(seed int64) bool {
		g := daggen.RandomTriangular(6, 0.3, seed)
		r := pebble.MinFeasibleR(g)
		p := prob(g, pebble.Oneshot, r)
		a, err1 := Exact(p, ExactOptions{})
		b, err2 := ExactDFS(p, ExactDFSOptions{})
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Result.Cost.Transfers == b.Result.Cost.Transfers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactDFSPyramid(b *testing.B) {
	g := daggen.Pyramid(2)
	p := prob(g, pebble.Oneshot, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExactDFS(p, ExactDFSOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
