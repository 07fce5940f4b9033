// Package solve provides pebbling solvers: an exact best-first search
// over game states (A* with an admissible model-aware lower bound,
// packed-state deduplication, optional hash-sharded parallel expansion;
// small instances, all models), a depth-first IDA* second
// implementation, an exhaustive order-enumeration optimum for the
// oneshot model, the three greedy strategies analyzed in §8 of the
// paper, and the naive topological baseline realizing the (2Δ+1)·n
// universal upper bound.
package solve

import (
	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// Solution is a solver's output: the pebbling it found and the verified
// replay result.
type Solution struct {
	Trace  *pebble.Trace
	Result pebble.Result
}

// Cost returns the solution's exact cost.
func (s Solution) Cost() pebble.Cost { return s.Result.Cost }

// Value returns the solution's cost value under its own model.
func (s Solution) Value() float64 { return s.Result.Cost.Value(s.Trace.Model) }

// Problem bundles a pebbling instance.
type Problem struct {
	G          *dag.DAG
	Model      pebble.Model
	R          int
	Convention pebble.Convention
}

// verify replays tr against the problem and panics on failure: solvers use
// it as an internal self-check so an illegal trace can never escape.
func verify(p Problem, tr *pebble.Trace) Solution {
	res, err := tr.Run(p.G)
	if err != nil {
		panic("solve: internal error: solver produced invalid trace: " + err.Error())
	}
	return Solution{Trace: tr, Result: res}
}
