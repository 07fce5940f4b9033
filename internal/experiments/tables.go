package experiments

import (
	"fmt"

	"rbpebble/internal/dag"
	"rbpebble/internal/gadgets"
	"rbpebble/internal/pebble"
	"rbpebble/internal/sched"
	"rbpebble/internal/solve"
)

// Table1 regenerates the paper's Table 1 by replaying single moves on a
// one-node DAG through the pebbling engine in each model: the cost each
// move is charged, or "rejected" when the model forbids it. The moves
// are compute, store, load, a second compute (of the stored node) and a
// delete.
func Table1() *Report {
	rep := &Report{
		Claim:  "load=1, store=1 everywhere; compute free except compcost (ε) and oneshot (once); delete free except nodel (banned)",
		Header: []string{"model", "blue→red", "red→blue", "compute", "2nd compute", "delete"},
	}
	const rejected = -1
	cell := func(c float64) string {
		if c == rejected {
			return "rejected"
		}
		return fmt.Sprintf("%g", c)
	}
	unit, free, recompute, deleteFree := true, true, true, true
	for _, kind := range pebble.AllKinds() {
		m := pebble.NewModel(kind)
		s, err := pebble.NewState(dag.New(1), m, 1, pebble.Convention{})
		if err != nil {
			panic(err)
		}
		charge := func(op pebble.MoveKind) float64 {
			before := s.Cost()
			if s.Apply(pebble.Move{Kind: op, Node: 0}) != nil {
				return rejected
			}
			after := s.Cost()
			return pebble.Cost{Transfers: after.Transfers - before.Transfers, Computes: after.Computes - before.Computes}.Value(m)
		}
		compute, store, load := charge(pebble.Compute), charge(pebble.Store), charge(pebble.Load)
		charge(pebble.Store) // the second compute starts from a blue pebble
		again, del := charge(pebble.Compute), charge(pebble.Delete)
		unit = unit && load == 1 && store == 1
		free = free && compute == m.Epsilon() && (compute > 0) == (kind == pebble.CompCost)
		recompute = recompute && (again == rejected) == (kind == pebble.Oneshot)
		if kind == pebble.NoDel {
			deleteFree = deleteFree && del == rejected
		} else {
			deleteFree = deleteFree && del == 0
		}
		rep.Rows = append(rep.Rows, []string{m.String(), cell(load), cell(store), cell(compute), cell(again), cell(del)})
	}
	rep.check("load and store cost 1 in every model", unit)
	rep.check("compute is free except in compcost, where it costs ε", free)
	rep.check("a second compute is rejected in oneshot only", recompute)
	rep.check("delete is free except in nodel, where it is rejected", deleteFree)
	return rep
}

// Table2 regenerates the measurable parts of the paper's Table 2: the
// cost range of optimal pebbling, the length of optimal pebblings, and
// the greedy-to-optimum ratio class, per model. Cost bounds are measured
// on the tradeoff DAG (which realizes both extremes); lengths on the
// same; greedy ratios on the Theorem 4 grid. solve.Greedy executes
// through internal/sched, which never recomputes a node, so every
// greedy/opt row prices a oneshot-style schedule: the column tests the
// paper's "large in oneshot", not its "constant-factor in
// nodel/compcost", which needs a greedy that recomputes (ROADMAP,
// "Incumbents that recompute").
func Table2() *Report {
	rep := &Report{
		Claim:  "cost ∈ [0,(2Δ+1)n] (oneshot/base), ∈ [≈n,(2Δ+1)n] (nodel), ∈ [≈εn,...] (compcost); length O(Δn) except base; greedy/opt large in oneshot (greedy never recomputes here, so base and compcost price oneshot schedules; the constant factor in nodel/compcost is untested)",
		Header: []string{"model", "minCost(meas)", "maxCost(meas)", "(2Δ+1)n", "steps/Δn", "greedy(no recompute)/opt"},
	}
	d, chain := 4, 40
	tr := gadgets.NewTradeoff(d, chain)
	n := tr.G.N()
	delta := tr.G.MaxInDegree()
	gg := gadgets.NewGreedyGrid(4, 16)

	inRange, floors, short := true, true, true
	ratios := map[pebble.ModelKind]float64{}
	for _, kind := range pebble.AllKinds() {
		m := pebble.NewModel(kind)
		// Min cost: strategy at maximal useful R. Max: naive topological
		// baseline at minimal R.
		_, rich, err := sched.Execute(tr.G, m, tr.MaxUsefulR(), pebble.Convention{}, tr.StrategyOrder(), sched.Options{Policy: sched.Belady})
		if err != nil {
			panic(err)
		}
		poor, err := solve.Topological(solve.Problem{G: tr.G, Model: m, R: tr.MinR()})
		if err != nil {
			panic(err)
		}
		stepsPerDn := float64(poor.Result.Steps) / float64(delta*n)

		// Greedy vs prescribed-optimal on the grid.
		greedy, err := solve.Greedy(solve.Problem{G: gg.G, Model: m, R: gg.R()}, solve.MostRedInputs)
		if err != nil {
			panic(err)
		}
		ratios[kind] = greedy.Result.Cost.Value(m) / diagonalCost(gg, m).Value(m)

		minC, maxC := rich.Cost.Value(m), poor.Result.Cost.Value(m)
		bound := (2*delta + 1) * n
		inRange = inRange && minC <= maxC && maxC <= float64(bound)+m.Epsilon()*float64(n)
		switch kind {
		case pebble.Oneshot, pebble.Base:
			floors = floors && minC == 0
		case pebble.NoDel:
			// At most R pebbles end red, so n-R nodes end blue.
			floors = floors && minC >= float64(n-tr.MaxUsefulR())
		case pebble.CompCost:
			floors = floors && minC >= m.Epsilon()*float64(n)
		}
		short = short && (kind == pebble.Base || poor.Result.Steps <= pebble.StepUpperBoundFactor(m)*delta*n)
		rep.Rows = append(rep.Rows, []string{
			m.String(), ftoa(minC), ftoa(maxC), itoa(bound), ftoa(stepsPerDn), ftoa(ratios[kind]),
		})
	}
	rep.check("min ≤ max ≤ (2Δ+1+ε)n in every model", inRange)
	rep.check(fmt.Sprintf("floors: 0 in oneshot and base, ≥ n-R = %d in nodel, ≥ εn in compcost", n-tr.MaxUsefulR()), floors)
	rep.check("steps within Lemma 1's bound (StepUpperBoundFactor·Δn) outside base", short)
	rep.check("greedy/opt is largest in oneshot and base",
		ratios[pebble.Oneshot] == ratios[pebble.Base] && ratios[pebble.Oneshot] > ratios[pebble.NoDel] && ratios[pebble.Oneshot] >= ratios[pebble.CompCost])
	return rep
}

// diagonalCost is the cost of the Theorem 4 grid under its prescribed
// (optimal) diagonal visit order with Belady eviction.
func diagonalCost(gg *gadgets.GreedyGrid, m pebble.Model) pebble.Cost {
	_, res, err := sched.Execute(gg.G, m, gg.R(), pebble.Convention{}, gg.VisitOrder(gg.OptimalVisits()), sched.Options{Policy: sched.Belady})
	if err != nil {
		panic(err)
	}
	return res.Cost
}
