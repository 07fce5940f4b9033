package solve

import (
	"errors"
	"fmt"

	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
	"rbpebble/internal/sched"
)

// ErrOrderLimit is returned by OrderOpt when the number of topological
// orders explored exceeds the budget.
var ErrOrderLimit = errors.New("solve: topological-order budget exceeded")

// OrderOptOptions configures OrderOpt.
type OrderOptOptions struct {
	// MaxOrders caps the number of complete topological orders evaluated
	// (0 means the default of 1,000,000).
	MaxOrders int
}

// OrderOpt finds the optimal oneshot pebbling by exhausting all
// topological compute orders and running Belady (optimal) eviction on
// each. In the oneshot model every pebbling is characterized by its
// compute order plus its transfer decisions (paper §8), and Belady is the
// optimal offline eviction for a fixed order, so the best (order, Belady)
// pair is a global optimum.
//
// It is a test-only reference: it shares neither the exact engines'
// move generator nor their heuristic, so it checks A* and the Dijkstra
// reference independently. The number of topological orders can be
// factorial, so it only suits small instances.
func OrderOpt(p Problem, opts OrderOptOptions) (Solution, error) {
	if p.Model.Kind != pebble.Oneshot {
		return Solution{}, fmt.Errorf("solve: OrderOpt applies to the oneshot model, got %s", p.Model)
	}
	maxOrders := opts.MaxOrders
	if maxOrders == 0 {
		maxOrders = 1_000_000
	}

	g := p.G
	n := g.N()
	indeg := make([]int, n)
	skip := make([]bool, n)
	for v := 0; v < n; v++ {
		indeg[v] = g.InDegree(dag.NodeID(v))
		if p.Convention.SourcesStartBlue && g.IsSource(dag.NodeID(v)) {
			skip[v] = true
		}
	}
	if p.Convention.SourcesStartBlue {
		// Sources are not computed; treat them as pre-resolved.
		for v := 0; v < n; v++ {
			if skip[v] {
				for _, w := range g.Succs(dag.NodeID(v)) {
					indeg[w]--
				}
			}
		}
	}

	orderLen := 0
	for v := 0; v < n; v++ {
		if !skip[v] {
			orderLen++
		}
	}

	var (
		best      *Solution
		bestCost  int64
		evaluated int
		limitHit  bool
	)
	order := make([]dag.NodeID, 0, orderLen)
	ready := make([]bool, n)
	for v := 0; v < n; v++ {
		ready[v] = !skip[v] && indeg[v] == 0
	}

	var rec func()
	rec = func() {
		if limitHit {
			return
		}
		if len(order) == orderLen {
			evaluated++
			if evaluated > maxOrders {
				limitHit = true
				return
			}
			tr, res, err := sched.Execute(g, p.Model, p.R, p.Convention, order, sched.Options{Policy: sched.Belady})
			if err != nil {
				panic("solve: OrderOpt generated invalid order: " + err.Error())
			}
			c := res.Cost.Scaled(p.Model)
			if best == nil || c < bestCost {
				sol := Solution{Trace: tr, Result: res}
				best, bestCost = &sol, c
			}
			return
		}
		for v := 0; v < n; v++ {
			if !ready[v] {
				continue
			}
			ready[v] = false
			order = append(order, dag.NodeID(v))
			var enabled []int
			for _, w := range g.Succs(dag.NodeID(v)) {
				indeg[w]--
				if indeg[w] == 0 && !skip[int(w)] {
					ready[w] = true
					enabled = append(enabled, int(w))
				}
			}
			rec()
			for _, w := range g.Succs(dag.NodeID(v)) {
				indeg[w]++
			}
			for _, w := range enabled {
				ready[w] = false
			}
			order = order[:len(order)-1]
			ready[v] = true
			if limitHit {
				return
			}
		}
	}
	rec()
	if limitHit {
		return Solution{}, fmt.Errorf("%w: %d orders", ErrOrderLimit, maxOrders)
	}
	if best == nil {
		return Solution{}, errors.New("solve: no topological order found (cyclic graph?)")
	}
	return *best, nil
}
