package solve

import (
	"errors"
	"fmt"
	"testing"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

func prob(g *dag.DAG, kind pebble.ModelKind, r int) Problem {
	return Problem{G: g, Model: pebble.NewModel(kind), R: r}
}

func TestExactChainFree(t *testing.T) {
	g := daggen.Chain(6)
	for _, kind := range []pebble.ModelKind{pebble.Base, pebble.Oneshot} {
		sol, err := Exact(prob(g, kind, 2), ExactOptions{})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if sol.Result.Cost.Transfers != 0 {
			t.Fatalf("%v: chain optimum = %v, want 0 transfers", kind, sol.Result.Cost)
		}
	}
}

func TestExactChainNoDel(t *testing.T) {
	// nodel forces every red pebble off the board via Store: n-2 stores.
	n := 5
	g := daggen.Chain(n)
	sol, err := Exact(prob(g, pebble.NoDel, 2), ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Result.Cost.Transfers != n-2 {
		t.Fatalf("nodel chain optimum = %d, want %d", sol.Result.Cost.Transfers, n-2)
	}
}

func TestExactCompCostChain(t *testing.T) {
	g := daggen.Chain(4)
	p := Problem{G: g, Model: pebble.Model{Kind: pebble.CompCost, EpsDenom: 4}, R: 2}
	sol, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: compute each node once (4ε), no transfers.
	if sol.Result.Cost.Transfers != 0 || sol.Result.Cost.Computes != 4 {
		t.Fatalf("compcost chain optimum = %v", sol.Result.Cost)
	}
	if sol.Value() != 1.0 {
		t.Fatalf("value = %v", sol.Value())
	}
}

func TestExactInputGroups(t *testing.T) {
	// Two groups of 2 sources feeding t0, t1 with R=3: exactly one sink
	// must be stored (cost 1) in every model that forbids free redo; and
	// even base pays 1 because both sinks cannot end red.
	g, _, _ := daggen.InputGroups(2, 2)
	for _, kind := range []pebble.ModelKind{pebble.Base, pebble.Oneshot} {
		sol, err := Exact(prob(g, kind, 3), ExactOptions{})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if sol.Result.Cost.Transfers != 1 {
			t.Fatalf("%v: optimum = %v, want 1 transfer", kind, sol.Result.Cost)
		}
	}
}

func TestExactPyramid(t *testing.T) {
	// Pyramid of height 2 with minimum R=3 in oneshot.
	g := daggen.Pyramid(2)
	sol, err := Exact(prob(g, pebble.Oneshot, 3), ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ub := pebble.CostUpperBound(g, pebble.NewModel(pebble.Oneshot))
	if sol.Result.Cost.Transfers > ub.Transfers {
		t.Fatalf("optimum above universal bound: %v", sol.Result.Cost)
	}
	// More pebbles can only help.
	sol2, err := Exact(prob(g, pebble.Oneshot, 6), ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Result.Cost.Transfers > sol.Result.Cost.Transfers {
		t.Fatal("monotonicity in R violated")
	}
	if sol2.Result.Cost.Transfers != 0 {
		t.Fatalf("R=n should be free, got %v", sol2.Result.Cost)
	}
}

func TestExactModelMonotonicity(t *testing.T) {
	// Every oneshot/nodel trace is base-legal, so opt_base <= opt_oneshot
	// and opt_base <= opt_nodel (in transfers).
	for seed := int64(0); seed < 6; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		base, err := Exact(prob(g, pebble.Base, r), ExactOptions{})
		if err != nil {
			t.Fatalf("seed %d base: %v", seed, err)
		}
		oneshot, err := Exact(prob(g, pebble.Oneshot, r), ExactOptions{})
		if err != nil {
			t.Fatalf("seed %d oneshot: %v", seed, err)
		}
		nodel, err := Exact(prob(g, pebble.NoDel, r), ExactOptions{})
		if err != nil {
			t.Fatalf("seed %d nodel: %v", seed, err)
		}
		if base.Result.Cost.Transfers > oneshot.Result.Cost.Transfers {
			t.Fatalf("seed %d: base %d > oneshot %d", seed,
				base.Result.Cost.Transfers, oneshot.Result.Cost.Transfers)
		}
		if base.Result.Cost.Transfers > nodel.Result.Cost.Transfers {
			t.Fatalf("seed %d: base %d > nodel %d", seed,
				base.Result.Cost.Transfers, nodel.Result.Cost.Transfers)
		}
	}
}

// TestExactPruningAblationSameCost is the differential soundness slice
// of the safe reductions (dominance prunes, the dead-pebble quotient and
// symmetry): the default engine must reach the same optimum as
// DisablePruning and as the faithful HeuristicOff Dijkstra, and its
// trace must replay at that cost. Random layered DAGs almost always
// have trivial automorphism groups, so the slice also covers symmetric
// ones across every model, convention and R in {Δ+1, Δ+2}.
func TestExactPruningAblationSameCost(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		p := prob(g, pebble.Oneshot, r)
		a, err := Exact(p, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Exact(p, ExactOptions{DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.Result.Cost != b.Result.Cost {
			t.Fatalf("seed %d: pruned %v != unpruned %v", seed, a.Result.Cost, b.Result.Cost)
		}
	}
	// pyramid(4) and fft(2) run in oneshot and nodel only: in base and
	// compcost their HeuristicOff reference takes seconds per instance.
	all := []pebble.ModelKind{pebble.Base, pebble.Oneshot, pebble.NoDel, pebble.CompCost}
	cheap := []pebble.ModelKind{pebble.Oneshot, pebble.NoDel}
	graphs := []struct {
		name  string
		g     *dag.DAG
		kinds []pebble.ModelKind
	}{
		{"pyramid(3)", daggen.Pyramid(3), all},
		{"pyramid(4)", daggen.Pyramid(4), cheap},
		{"grid(3,3)", daggen.Grid(3, 3), all},
		{"fft(2)", daggen.FFT(2), cheap},
		{"bintree(3)", daggen.BinaryTree(3), all},
		{"chain(5)", daggen.Chain(5), all},
	}
	for _, gc := range graphs {
		for _, kind := range gc.kinds {
			for conv := 0; conv < 4; conv++ {
				for dr := 1; dr <= 2; dr++ {
					p := prob(gc.g, kind, gc.g.MaxInDegree()+dr)
					p.Convention = pebble.Convention{SourcesStartBlue: conv&1 != 0, SinksMustBeBlue: conv&2 != 0}
					name := fmt.Sprintf("%s %v conv=%+v R=%d", gc.name, kind, p.Convention, p.R)
					var want int64 = -1
					for _, opts := range []ExactOptions{{}, {DisablePruning: true}, {Heuristic: HeuristicOff}} {
						opts.MaxStates = 5_000_000
						sol, err := Exact(p, opts)
						if err != nil {
							t.Fatalf("%s %+v: %v", name, opts, err)
						}
						got := sol.Result.Cost.Scaled(p.Model)
						res, err := sol.Trace.Run(p.G)
						if err != nil || res.Cost.Scaled(p.Model) != got {
							t.Fatalf("%s %+v: trace replays at %v (%v), solver reported %d", name, opts, res.Cost, err, got)
						}
						if want >= 0 && got != want {
							t.Fatalf("%s %+v: optimum %d, default engine %d", name, opts, got, want)
						}
						if want < 0 {
							want = got
						}
					}
				}
			}
		}
	}
}

func TestExactStateLimit(t *testing.T) {
	g := daggen.Pyramid(3)
	_, err := Exact(prob(g, pebble.Base, 3), ExactOptions{MaxStates: 5})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

func TestExactInfeasibleR(t *testing.T) {
	g := daggen.Pyramid(2)
	if _, err := Exact(prob(g, pebble.Oneshot, 2), ExactOptions{}); err == nil {
		t.Fatal("R < Δ+1 accepted")
	}
}

func TestExactEmptyGraph(t *testing.T) {
	sol, err := Exact(prob(dag.New(0), pebble.Oneshot, 1), ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Trace.Moves) != 0 {
		t.Fatal("empty graph needs no moves")
	}
}

func TestOrderOptMatchesExact(t *testing.T) {
	// The (order, Belady) optimum must equal the state-space optimum in
	// oneshot. This cross-validates both solvers.
	for seed := int64(0); seed < 8; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		p := prob(g, pebble.Oneshot, r)
		ex, err := Exact(p, ExactOptions{})
		if err != nil {
			t.Fatalf("seed %d exact: %v", seed, err)
		}
		oo, err := OrderOpt(p, OrderOptOptions{})
		if err != nil {
			t.Fatalf("seed %d orderopt: %v", seed, err)
		}
		if ex.Result.Cost.Transfers != oo.Result.Cost.Transfers {
			t.Fatalf("seed %d: exact %d != orderopt %d", seed,
				ex.Result.Cost.Transfers, oo.Result.Cost.Transfers)
		}
	}
}

func TestOrderOptRejectsOtherModels(t *testing.T) {
	g := daggen.Chain(3)
	if _, err := OrderOpt(prob(g, pebble.Base, 2), OrderOptOptions{}); err == nil {
		t.Fatal("OrderOpt accepted base model")
	}
}

func TestOrderOptOrderLimit(t *testing.T) {
	// 6 independent group targets -> many orders; cap must trigger.
	g, _, _ := daggen.InputGroups(6, 2)
	_, err := OrderOpt(prob(g, pebble.Oneshot, 3), OrderOptOptions{MaxOrders: 3})
	if !errors.Is(err, ErrOrderLimit) {
		t.Fatalf("err = %v", err)
	}
}

func TestGreedyRunsAndIsVerified(t *testing.T) {
	for _, rule := range AllGreedyRules() {
		for seed := int64(0); seed < 5; seed++ {
			g := daggen.RandomLayered(4, 4, 2, seed)
			r := pebble.MinFeasibleR(g)
			sol, err := Greedy(prob(g, pebble.Oneshot, r), rule)
			if err != nil {
				t.Fatalf("%v seed %d: %v", rule, seed, err)
			}
			if !sol.Result.Complete {
				t.Fatalf("%v: incomplete", rule)
			}
			ub := pebble.CostUpperBound(g, pebble.NewModel(pebble.Oneshot))
			if sol.Result.Cost.Transfers > ub.Transfers {
				t.Fatalf("%v: above universal bound", rule)
			}
		}
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		p := prob(g, pebble.Oneshot, r)
		ex, err := Exact(p, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rule := range AllGreedyRules() {
			gr, err := Greedy(p, rule)
			if err != nil {
				t.Fatal(err)
			}
			if gr.Result.Cost.Transfers < ex.Result.Cost.Transfers {
				t.Fatalf("seed %d rule %v: greedy %d < optimum %d (exact solver is wrong)",
					seed, rule, gr.Result.Cost.Transfers, ex.Result.Cost.Transfers)
			}
		}
	}
}

func TestGreedyRulesIdenticalOnUniformIndegree(t *testing.T) {
	// Paper §8: for graphs where every non-source node has the same
	// indegree, the three rules coincide.
	g, _, _ := daggen.InputGroups(4, 3)
	p := prob(g, pebble.Oneshot, 4)
	var first []dag.NodeID
	for i, rule := range AllGreedyRules() {
		order, err := GreedyOrder(p, rule)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = order
			continue
		}
		if len(order) != len(first) {
			t.Fatalf("%v: different order length", rule)
		}
		for j := range order {
			if order[j] != first[j] {
				t.Fatalf("%v: order diverges at %d: %v vs %v", rule, j, order, first)
			}
		}
	}
}

func TestTopologicalRealizesUpperBound(t *testing.T) {
	g, _, _ := daggen.InputGroups(5, 3)
	p := prob(g, pebble.Oneshot, 4)
	sol, err := Topological(p)
	if err != nil {
		t.Fatal(err)
	}
	ub := pebble.CostUpperBound(g, p.Model)
	if sol.Result.Cost.Transfers > ub.Transfers {
		t.Fatalf("naive cost %d > bound %d", sol.Result.Cost.Transfers, ub.Transfers)
	}
	// And TopoBelady is never worse than the naive baseline.
	tb, err := TopoBelady(p)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Result.Cost.Transfers > sol.Result.Cost.Transfers {
		t.Fatalf("TopoBelady %d > Topological %d", tb.Result.Cost.Transfers, sol.Result.Cost.Transfers)
	}
}

func TestTopologicalWithSourcesStartBlue(t *testing.T) {
	g := daggen.Pyramid(2)
	p := Problem{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 4,
		Convention: pebble.Convention{SourcesStartBlue: true}}
	sol, err := Topological(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Complete {
		t.Fatal("incomplete")
	}
	// Sources must be loaded, so at least #sources transfers.
	if sol.Result.Cost.Transfers < 3 {
		t.Fatalf("transfers = %d, want >= 3", sol.Result.Cost.Transfers)
	}
}

func TestMinVisitOrderKnownInstance(t *testing.T) {
	// 3 groups; transition costs favor order 2 -> 0 -> 1.
	start := []int64{5, 9, 1}
	trans := [][]int64{
		{0, 2, 9},
		{9, 0, 9},
		{1, 9, 0},
	}
	cost, order := MinVisitOrder(start, trans)
	if cost != 1+1+2 {
		t.Fatalf("cost = %d, want 4", cost)
	}
	want := []int{2, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMinVisitOrderEdgeCases(t *testing.T) {
	c, o := MinVisitOrder(nil, nil)
	if c != 0 || o != nil {
		t.Fatal("empty instance")
	}
	c, o = MinVisitOrder([]int64{7}, [][]int64{{0}})
	if c != 7 || len(o) != 1 || o[0] != 0 {
		t.Fatalf("singleton: cost=%d order=%v", c, o)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("malformed trans accepted")
		}
	}()
	MinVisitOrder([]int64{1, 2}, [][]int64{{0, 1}})
}

func TestMinVisitOrderMatchesBruteForce(t *testing.T) {
	// Exhaustive check on 4 groups with deterministic pseudo-random costs.
	k := 4
	start := make([]int64, k)
	trans := make([][]int64, k)
	x := int64(12345)
	next := func() int64 { x = (x*1103515245 + 12_345) % (1 << 31); return x % 50 }
	for i := 0; i < k; i++ {
		start[i] = next()
		trans[i] = make([]int64, k)
		for j := 0; j < k; j++ {
			if i != j {
				trans[i][j] = next()
			}
		}
	}
	got, _ := MinVisitOrder(start, trans)
	best := inf64
	perm := []int{0, 1, 2, 3}
	var permute func(i int)
	permute = func(i int) {
		if i == k {
			c := start[perm[0]]
			for j := 0; j+1 < k; j++ {
				c += trans[perm[j]][perm[j+1]]
			}
			if c < best {
				best = c
			}
			return
		}
		for j := i; j < k; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			permute(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	permute(0)
	if got != best {
		t.Fatalf("DP %d != brute force %d", got, best)
	}
}

func TestGreedyRuleStrings(t *testing.T) {
	for _, r := range AllGreedyRules() {
		if r.String() == "" {
			t.Fatal("empty rule name")
		}
	}
	if GreedyRule(9).String() == "" {
		t.Fatal("unknown rule should render")
	}
}

func BenchmarkExactOneshotPyramid(b *testing.B) {
	g := daggen.Pyramid(2)
	p := prob(g, pebble.Oneshot, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(p, ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyFFT(b *testing.B) {
	g := daggen.FFT(4)
	p := prob(g, pebble.Oneshot, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(p, MostRedInputs); err != nil {
			b.Fatal(err)
		}
	}
}
