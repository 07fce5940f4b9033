package solve

import (
	"errors"

	"rbpebble/internal/pebble"
)

// ErrInfeasible is returned by RootLowerBound and by every exact
// engine when the instance admits no complete pebbling under its
// convention — e.g. a needed source that starts blue can
// never be recomputed after a delete in oneshot.
var ErrInfeasible = errors.New("solve: instance is infeasible under this convention")

// RootLowerBound returns the certified scaled lower bound the heuristic
// h assigns to the initial state of p (0 under HeuristicOff) — an instant
// "the optimum costs at least L" certificate, admissible in every
// model. The anytime orchestrator publishes it before any search runs;
// a deadline that fires immediately afterwards still yields a nonzero
// certified interval on any instance with forced transfers.
//
// It returns ErrInfeasible when no complete pebbling exists at any
// cost, and an error for invalid instances (R too small, cyclic graph).
func RootLowerBound(p Problem, h Heuristic) (int64, error) {
	start, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
	if err != nil {
		return 0, err
	}
	if start.Complete() {
		return 0, nil
	}
	key := start.AppendPacked(nil)
	v, dead := newLowerBound(p, h, key).estimate(key)
	if dead {
		return 0, ErrInfeasible
	}
	return v, nil
}
