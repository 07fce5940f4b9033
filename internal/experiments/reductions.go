package experiments

import (
	"fmt"
	"math"
	"slices"

	"rbpebble/internal/gadgets"
	"rbpebble/internal/hampath"
	"rbpebble/internal/pebble"
	"rbpebble/internal/reduce"
	"rbpebble/internal/solve"
	"rbpebble/internal/ugraph"
	"rbpebble/internal/vcover"
)

// Thm2Params configures the Hamiltonian Path reduction experiment.
type Thm2Params struct {
	// Instances are (n, p, seed) triples for random sources plus the
	// fixed families below.
	RandomN []int
	Seed    int64
}

// DefaultThm2Params covers planted-HP, HP-free and random instances.
func DefaultThm2Params() Thm2Params { return Thm2Params{RandomN: []int{6, 8, 10}, Seed: 42} }

// Thm2HamPath regenerates the Theorem 2 / Figure 5 reduction: for each
// source graph it builds the pebbling DAG, computes the true minimum
// visit cost (Held-Karp over all permutations), and checks that the cost
// hits the closed-form threshold exactly when the Hamiltonian Path oracle
// says a path exists. Costs are engine-verified by replaying the best
// permutation.
func Thm2HamPath(p Thm2Params) *Report {
	rep := &Report{
		Claim:  "pebbling at threshold cost possible iff the source graph has a Hamiltonian path (oneshot & nodel)",
		Header: []string{"source", "N", "M", "hasHP", "threshold", "minCost", "at-threshold", "verified"},
	}
	type inst struct {
		name string
		g    *ugraph.Graph
	}
	var instances []inst
	instances = append(instances,
		inst{"path(6)", ugraph.Path(6)},
		inst{"cycle(7)", ugraph.Cycle(7)},
		inst{"star(6)", ugraph.Star(6)},
		inst{"2-triangles", ugraph.DisjointTriangles(2)},
		inst{"petersen", ugraph.Petersen()},
		inst{"hypercube(3)", ugraph.Hypercube(3)},
		inst{"grid(3x3)", ugraph.GridGraph(3, 3)},
	)
	for i, n := range p.RandomN {
		g, _ := ugraph.RandomWithHamPath(n, 0.15, p.Seed+int64(i))
		instances = append(instances, inst{fmt.Sprintf("planted(%d)", n), g})
		instances = append(instances, inst{fmt.Sprintf("gnp(%d)", n), ugraph.Random(n, 0.25, p.Seed+int64(100+i))})
	}
	allMatch, allVerified := true, true
	for _, in := range instances {
		r := reduce.NewHamPath(in.g)
		hasHP, witness := hampath.Solve(in.g)
		minCost, bestPerm := minHamPathCost(r)
		atThreshold := minCost == r.ThresholdOneshot()
		if atThreshold != hasHP {
			allMatch = false
		}
		// Engine-verify: replay the best permutation (or the witness).
		perm := bestPerm
		if hasHP {
			perm = witness
		}
		_, res, err := r.Pebble(perm, pebble.NewModel(pebble.Oneshot))
		if err != nil {
			panic(err)
		}
		verified := res.Cost.Transfers == r.PermutationCostOneshot(perm)
		allVerified = allVerified && verified
		rep.Rows = append(rep.Rows, []string{
			in.name, itoa(in.g.N()), itoa(in.g.M()), btoa(hasHP),
			itoa(r.ThresholdOneshot()), itoa(minCost), btoa(atThreshold), btoa(verified),
		})
	}
	rep.check("minimum cost is at the threshold exactly on the instances with a Hamiltonian path", allMatch)
	rep.check("the engine's replay costs what the permutation formula says", allVerified)
	return rep
}

// minHamPathCost returns the minimum oneshot visit cost over all
// permutations and one minimizing permutation, via the Held-Karp DP on
// the pairwise non-adjacency penalty.
func minHamPathCost(r *reduce.HamPath) (int, []int) {
	n := r.Source.N()
	start := make([]int64, n)
	trans := make([][]int64, n)
	for i := 0; i < n; i++ {
		trans[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			if i != j && !r.Source.HasEdge(i, j) {
				trans[i][j] = 2
			}
		}
	}
	extra, perm := solve.MinVisitOrder(start, trans)
	return r.ThresholdOneshot() + int(extra), perm
}

// Thm3Params configures the Vertex Cover reduction experiment.
type Thm3Params struct {
	KPrimes []int
}

// DefaultThm3Params sweeps the common-group size.
func DefaultThm3Params() Thm3Params { return Thm3Params{KPrimes: []int{10, 20, 40}} }

// Thm3VertexCover regenerates the Theorem 3 / Figures 6-7 claim: the
// pebbling cost of the reduction DAG is 2k'·|VC| + O(N²), so the
// pebbling cost ratio between a 2-approximate cover and the minimum
// cover approaches the cover size ratio as k' grows — a δ-approximate
// pebbler would δ-approximate Vertex Cover.
func Thm3VertexCover(p Thm3Params) *Report {
	rep := &Report{
		Claim:  "pebbling cost = 2k'·|VC| + O(N²); cost ratios converge to cover-size ratios as k' grows",
		Header: []string{"source", "k'", "|VCmin|", "cost(VCmin)", "2k'|VCmin|", "|VC2apx|", "cost(VC2apx)", "costRatio", "coverRatio"},
	}
	sources := []struct {
		name string
		g    *ugraph.Graph
	}{
		{"cycle(6)", ugraph.Cycle(6)},
		{"K(3,3)", ugraph.CompleteBipartite(3, 3)},
		{"gnp(7,.4)", ugraph.Random(7, 0.4, 5)},
	}
	above, flat, converges := true, true, true
	for _, src := range sources {
		minC := vcover.Exact(src.g)
		apxC := vcover.TwoApprox(src.g)
		slack, dist := -1, math.Inf(1)
		for _, kp := range p.KPrimes {
			r := reduce.NewVertexCover(src.g, kp)
			_, optRes, err := r.Pebble(r.VisitsForCover(minC))
			if err != nil {
				panic(err)
			}
			_, apxRes, err := r.Pebble(r.VisitsForCover(apxC))
			if err != nil {
				panic(err)
			}
			cost, common := optRes.Cost.Transfers, r.CommonCost(len(minC))
			costRatio := float64(apxRes.Cost.Transfers) / float64(cost)
			coverRatio := float64(len(apxC)) / float64(len(minC))
			above = above && cost >= common
			flat = flat && (slack < 0 || cost-common == slack)
			slack = cost - common
			converges = converges && math.Abs(costRatio-coverRatio) <= dist
			dist = math.Abs(costRatio - coverRatio)
			rep.Rows = append(rep.Rows, []string{
				src.name, itoa(kp),
				itoa(len(minC)), itoa(cost), itoa(common),
				itoa(len(apxC)), itoa(apxRes.Cost.Transfers),
				ftoa(costRatio), ftoa(coverRatio),
			})
		}
	}
	rep.check("cost(VCmin) ≥ 2k'·|VCmin|", above)
	rep.check("cost(VCmin) - 2k'·|VCmin| is the same at every k' (the O(N²) term)", flat)
	rep.check("costRatio approaches coverRatio as k' grows", converges)
	return rep
}

// Thm4Params configures the greedy separation experiment.
type Thm4Params struct {
	L       int
	KPrimes []int
}

// DefaultThm4Params sweeps k' at a fixed grid.
func DefaultThm4Params() Thm4Params { return Thm4Params{L: 4, KPrimes: []int{8, 16, 32, 64}} }

// Thm4Greedy regenerates the Theorem 4 / Figure 8 separation: greedy
// strategies follow the misguided column order and pay Θ(k') per group,
// while the diagonal order pays O(1) per group; the ratio grows linearly
// in k' (and with it, in n).
func Thm4Greedy(p Thm4Params) *Report {
	rep := &Report{
		Claim:  fmt.Sprintf("with ℓ=%d: greedy cost 2k'·Θ(ℓ²) vs optimal (k-k')·Θ(ℓ²): ratio grows with k' — Θ̃(√n)–Θ̃(n) asymptotically", p.L),
		Header: []string{"k'", "n", "followed-misguide", "greedy", "optimal", "ratio"},
	}
	followed, grows, flat := true, true, true
	prevRatio, prevOpt := 0.0, -1
	for _, kp := range p.KPrimes {
		gg := gadgets.NewGreedyGrid(p.L, kp)
		f, greedy := greedyOnGrid(gg, solve.MostRedInputs)
		opt := diagonalCost(gg, pebble.NewModel(pebble.Oneshot)).Transfers
		ratio := float64(greedy) / float64(opt)
		followed = followed && f
		grows = grows && ratio > prevRatio
		flat = flat && (prevOpt < 0 || opt == prevOpt)
		prevRatio, prevOpt = ratio, opt
		rep.Rows = append(rep.Rows, []string{itoa(kp), itoa(gg.G.N()), btoa(f), itoa(greedy), itoa(opt), ftoa(ratio)})
	}
	rep.check("greedy follows the adversarial column order on every instance", followed)
	rep.check("greedy/optimal grows with k'", grows)
	rep.check("the diagonal order pays nothing for the common nodes: its cost is the same at every k'", flat)
	return rep
}

// greedyOnGrid runs rule on the Theorem 4 grid in oneshot. It reports
// whether greedy visited the targets in the adversarial column order
// (its schedule computes every node once, in the greedy order), and its
// transfer cost.
func greedyOnGrid(gg *gadgets.GreedyGrid, rule solve.GreedyRule) (followed bool, cost int) {
	greedy, err := solve.Greedy(solve.Problem{G: gg.G, Model: pebble.NewModel(pebble.Oneshot), R: gg.R()}, rule)
	if err != nil {
		panic(err)
	}
	tpos := gg.TargetPos()
	var visits []gadgets.GridPos
	for _, mv := range greedy.Trace.Moves {
		if pos, ok := tpos[mv.Node]; ok && mv.Kind == pebble.Compute {
			visits = append(visits, pos)
		}
	}
	return slices.Equal(visits, gg.GreedyExpectedVisits()), greedy.Result.Cost.Transfers
}
