package experiments

import (
	"fmt"
	"slices"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/gadgets"
	"rbpebble/internal/pebble"
	"rbpebble/internal/sched"
	"rbpebble/internal/solve"
)

// Lemma1Params configures the pebbling-length experiment.
type Lemma1Params struct {
	Seeds []int64
}

// DefaultLemma1Params samples a few random workloads.
func DefaultLemma1Params() Lemma1Params { return Lemma1Params{Seeds: []int64{1, 2, 3}} }

// Lemma1Length regenerates Lemma 1: optimal pebblings in oneshot, nodel
// and compcost consist of O(Δ·n) steps. We measure exact optima on small
// random DAGs and report steps/(Δ·n); the base model is excluded (no
// polynomial bound exists there).
func Lemma1Length(p Lemma1Params) *Report {
	rep := &Report{
		Claim:  "optimal pebblings have O(Δ·n) steps in oneshot, nodel, compcost",
		Header: []string{"workload", "model", "n", "Δ", "steps(opt)", "steps/Δn"},
	}
	// Lemma 1's constant for oneshot and nodel; compcost's bound grows
	// with 1/ε, so holding its rows to this one too is stricter.
	limit, bounded := pebble.StepUpperBoundFactor(pebble.NewModel(pebble.Oneshot)), true
	for _, seed := range p.Seeds {
		g := daggen.RandomLayered(3, 3, 2, seed)
		n, delta := g.N(), g.MaxInDegree()
		for _, kind := range []pebble.ModelKind{pebble.Oneshot, pebble.NoDel, pebble.CompCost} {
			m := pebble.NewModel(kind)
			opt, err := solve.Exact(solve.Problem{G: g, Model: m, R: delta + 1}, solve.ExactOptions{})
			if err != nil {
				panic(err)
			}
			ratio := float64(opt.Result.Steps) / float64(delta*n)
			bounded = bounded && opt.Result.Steps <= limit*delta*n
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("layered(seed=%d)", seed), m.String(),
				itoa(n), itoa(delta), itoa(opt.Result.Steps), ftoa(ratio),
			})
		}
	}
	rep.check(fmt.Sprintf("steps/Δn ≤ %d on every row", limit), bounded)
	return rep
}

// Conventions regenerates the Appendix C observation: alternative
// initial/final-state conventions shift the optimal cost by at most
// #sources (loads) / #sinks (stores), never asymptotically.
func Conventions() *Report {
	rep := &Report{
		Claim:  "requiring blue sinks adds ≤ #sinks; blue-start sources add ≤ #sources (after the single-source transform, exactly 1)",
		Header: []string{"workload", "convention", "opt", "shift", "bound"},
	}
	g := daggen.Pyramid(2)
	m := pebble.NewModel(pebble.Oneshot)
	r := 4
	opt := func(g *dag.DAG, r int, conv pebble.Convention) int {
		sol, err := solve.Exact(solve.Problem{G: g, Model: m, R: r, Convention: conv}, solve.ExactOptions{})
		if err != nil {
			panic(err)
		}
		return sol.Result.Cost.Transfers
	}
	base := opt(g, r, pebble.Convention{})
	rep.Rows = append(rep.Rows, []string{"pyramid(2)", "paper (free sources, any sink)", itoa(base), "0", "-"})
	shift := func(workload, convention string, cost, bound int, what string) {
		rep.Rows = append(rep.Rows, []string{workload, convention, itoa(cost), itoa(cost - base), fmt.Sprintf("≤ %d %s", bound, what)})
		rep.check(fmt.Sprintf("%s shifts the optimum by 0..%d %s", convention, bound, what), cost >= base && cost-base <= bound)
	}
	shift("pyramid(2)", "sinks must be blue", opt(g, r, pebble.Convention{SinksMustBeBlue: true}), len(g.Sinks()), "sinks")
	shift("pyramid(2)", "sources start blue", opt(g, r, pebble.Convention{SourcesStartBlue: true}), len(g.Sources()), "sources")
	// Single-source transform: the blue-start penalty collapses to 1.
	tg := g.Clone()
	gadgets.SingleSource(tg)
	shift("pyramid(2)+s0", "sources start blue, single source", opt(tg, r+1, pebble.Convention{SourcesStartBlue: true}), 1, "source")
	return rep
}

// AblationEviction compares the eviction policies inside a fixed compute
// order across workloads (the sched-layer design choice).
func AblationEviction() *Report {
	ordered, bounded := true, true
	rep := &Report{
		Claim:  "(design choice) Belady ≤ LRU/FIFO/Random ≤ naive store-all ≤ (2Δ+1)n",
		Header: []string{"workload", "R", "belady", "lru", "fifo", "random", "store-all", "(2Δ+1)n"},
	}
	for _, w := range []struct {
		name string
		g    *dag.DAG
	}{
		{"fft(4)", daggen.FFT(4)},
		{"pyramid(6)", daggen.Pyramid(6)},
		{"grid(6x6)", daggen.Grid(6, 6)},
		{"matmul(3)", daggen.MatMul(3)},
	} {
		g := w.g
		r := pebble.MinFeasibleR(g) + 2
		order, err := g.TopoOrder()
		if err != nil {
			panic(err)
		}
		row := []string{w.name, itoa(r)}
		var cost []int
		for _, pol := range []sched.Policy{sched.Belady, sched.LRU, sched.FIFO, sched.Random, sched.EvictAllStore} {
			_, res, err := sched.Execute(g, pebble.NewModel(pebble.Oneshot), r, pebble.Convention{}, order, sched.Options{Policy: pol, Seed: 7})
			if err != nil {
				panic(err)
			}
			cost = append(cost, res.Cost.Transfers)
			row = append(row, itoa(res.Cost.Transfers))
		}
		bound := (2*g.MaxInDegree() + 1) * g.N()
		for _, c := range cost[1:4] {
			ordered = ordered && cost[0] <= c && c <= cost[4]
		}
		bounded = bounded && cost[4] <= bound
		rep.Rows = append(rep.Rows, append(row, itoa(bound)))
	}
	rep.check("Belady ≤ LRU, FIFO, Random ≤ store-all on every workload", ordered)
	rep.check("store-all ≤ (2Δ+1)n on every workload", bounded)
	return rep
}

// AblationExactPruning measures the exact solver's search reductions:
// the optimum with the default A* (the admissible lower bound, which
// includes the S-partition packing), with pruning disabled, and with
// the heuristic off (plain Dijkstra, the seed behavior) — the costs must
// coincide while the expanded-state counts quantify each reduction.
// The A* column runs with the safe reductions on: the normal-form move
// rules (evict only when the red set is full, load only for a ready
// consumer), the dominance prunes, the dead-pebble quotient and
// symmetry. The no-prune column turns all of them off but keeps the
// bound; the Dijkstra column keeps the prunes and turns the bound, and
// with it the reductions that ride on it, off.
// The pyramid(5) R=Δ+1 row is the S-partition packing's design target.
func AblationExactPruning() *Report {
	rep := &Report{
		Claim:  "(design choice) pruning and the admissible bound preserve the optimum while shrinking the search",
		Header: []string{"workload", "opt", "equal", "states(a*)", "states(no-prune)", "states(dijkstra)", "dijkstra/a*"},
	}
	allEqual, smaller := true, true
	igDAG, _, _ := daggen.InputGroups(2, 2)
	for _, w := range []struct {
		name string
		g    *dag.DAG
	}{
		{"pyramid(2)", daggen.Pyramid(2)},
		{"layered(3,3)", daggen.RandomLayered(3, 3, 2, 1)},
		{"groups(2,2)", igDAG},
		{"pyramid(5) R=Δ+1", daggen.Pyramid(5)},
	} {
		g := w.g
		r := pebble.MinFeasibleR(g)
		p := solve.Problem{G: g, Model: pebble.NewModel(pebble.Oneshot), R: r}
		var sa, sb, sd solve.ExactStats
		a, err := solve.Exact(p, solve.ExactOptions{Stats: &sa})
		if err != nil {
			panic(err)
		}
		b, err := solve.Exact(p, solve.ExactOptions{DisablePruning: true, Stats: &sb})
		if err != nil {
			panic(err)
		}
		d, err := solve.Exact(p, solve.ExactOptions{Heuristic: solve.HeuristicOff, Stats: &sd})
		if err != nil {
			panic(err)
		}
		equal := a.Result.Cost.Transfers == b.Result.Cost.Transfers &&
			a.Result.Cost.Transfers == d.Result.Cost.Transfers
		allEqual = allEqual && equal
		smaller = smaller && sa.Expanded < sb.Expanded && sa.Expanded < sd.Expanded
		rep.Rows = append(rep.Rows, []string{
			w.name, itoa(a.Result.Cost.Transfers), btoa(equal),
			itoa(sa.Expanded), itoa(sb.Expanded), itoa(sd.Expanded),
			ftoa(float64(sd.Expanded) / float64(max(sa.Expanded, 1))),
		})
	}
	rep.check("all three configurations find the same optimum", allEqual)
	rep.check("A* expands fewer states than no-prune and Dijkstra on every workload", smaller)
	return rep
}

// AblationGreedyRules compares the three §8 greedy tie-breaking rules on
// neutral workloads and on the Theorem 4 grid (ℓ=4), where the
// prescribed diagonal order is the reference.
func AblationGreedyRules() *Report {
	rep := &Report{
		Claim:  "(design choice) every rule stays within (2Δ+1)n; the rules differ even at uniform indegree; the Theorem 4 grid misleads all three, though not equally",
		Header: []string{"workload", "R", "most-red", "fewest-blue", "red-ratio", "(2Δ+1)n", "diagonal"},
	}
	bounded, fftDiffers, misled, fewestBest := true, false, true, true
	prev := []int{0, 0, 0}
	run := func(name string, g *dag.DAG, r int, diagonal string) []int {
		row, cost := []string{name, itoa(r)}, []int{}
		for _, rule := range solve.AllGreedyRules() {
			sol, err := solve.Greedy(solve.Problem{G: g, Model: pebble.NewModel(pebble.Oneshot), R: r}, rule)
			if err != nil {
				panic(err)
			}
			cost = append(cost, sol.Result.Cost.Transfers)
			row = append(row, itoa(sol.Result.Cost.Transfers))
			bounded = bounded && sol.Result.Cost.Transfers <= (2*g.MaxInDegree()+1)*g.N()
		}
		rep.Rows = append(rep.Rows, append(row, itoa((2*g.MaxInDegree()+1)*g.N()), diagonal))
		return cost
	}
	for _, w := range []struct {
		name string
		g    *dag.DAG
	}{
		{"fft(3)", daggen.FFT(3)},
		{"stencil(8,4)", daggen.Stencil1D(8, 4)},
		{"layered(4,5)", daggen.RandomLayered(4, 5, 3, 9)},
	} {
		cost := run(w.name, w.g, pebble.MinFeasibleR(w.g)+1, "-")
		if w.name == "fft(3)" {
			fftDiffers = slices.Min(cost) < slices.Max(cost)
		}
	}
	for _, kp := range []int{8, 16, 32} {
		gg := gadgets.NewGreedyGrid(4, kp)
		diagonal := diagonalCost(gg, pebble.NewModel(pebble.Oneshot)).Transfers
		cost := run(fmt.Sprintf("grid(ℓ=4,k'=%d)", kp), gg.G, gg.R(), itoa(diagonal))
		for i, c := range cost {
			misled = misled && c > diagonal && c > prev[i]
		}
		fewestBest = fewestBest && cost[1] < cost[0] && cost[1] < cost[2]
		prev = cost
	}
	rep.check("every rule stays within (2Δ+1)n on every workload", bounded)
	rep.check("the rules differ on fft(3), whose indegree is uniform", fftDiffers)
	rep.check("on the grid every rule pays more than the diagonal order, and more at each larger k'", misled)
	rep.check("on the grid fewest-blue pays less than most-red and red-ratio at every k'", fewestBest)
	return rep
}
