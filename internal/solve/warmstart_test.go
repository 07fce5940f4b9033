package solve

import (
	"errors"
	"testing"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestExactPruneBoundKeepsOptimum: pruning f >= incumbent+1 (the
// warm-start refinement setting) must still find and prove the exact
// optimum, with no more expansions than the unpruned search.
func TestExactPruneBoundKeepsOptimum(t *testing.T) {
	g := daggen.Pyramid(4)
	p := prob(g, pebble.Oneshot, 3)
	var base ExactStats
	ref, err := Exact(p, ExactOptions{Stats: &base})
	if err != nil {
		t.Fatal(err)
	}
	opt := ref.Result.Cost.Scaled(p.Model)

	var pruned ExactStats
	sol, err := Exact(p, ExactOptions{PruneBound: opt + 1, Stats: &pruned})
	if err != nil {
		t.Fatalf("prune bound %d: %v", opt+1, err)
	}
	if got := sol.Result.Cost.Scaled(p.Model); got != opt {
		t.Fatalf("pruned optimum %d != %d", got, opt)
	}
	if pruned.Expanded > base.Expanded {
		t.Fatalf("pruning expanded more states (%d > %d)", pruned.Expanded, base.Expanded)
	}
}

// TestExactPruneBoundExhaustionCertifies: with PruneBound at exactly
// the optimum the search must exhaust and return ErrBoundExhausted with
// LowerBound == PruneBound — the certificate a warm-started refinement
// uses to prove a cached incumbent optimal.
func TestExactPruneBoundExhaustionCertifies(t *testing.T) {
	g := daggen.Pyramid(4)
	p := prob(g, pebble.Oneshot, 3)
	ref, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := ref.Result.Cost.Scaled(p.Model)

	var s ExactStats
	_, err = Exact(p, ExactOptions{PruneBound: opt, Stats: &s})
	if !errors.Is(err, ErrBoundExhausted) {
		t.Fatalf("err = %v, want ErrBoundExhausted", err)
	}
	if s.LowerBound != opt {
		t.Fatalf("LowerBound = %d, want %d", s.LowerBound, opt)
	}
}

// TestExactInitialLowerBoundSeedsCertificate: a caller-certified floor
// must survive into the harvested LowerBound even when the search is
// cut before it could prove anything on its own.
func TestExactInitialLowerBoundSeedsCertificate(t *testing.T) {
	g := daggen.Pyramid(4)
	p := prob(g, pebble.Oneshot, 3)
	ref, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := ref.Result.Cost.Scaled(p.Model)

	var s ExactStats
	_, err = Exact(p, ExactOptions{MaxStates: 1, InitialLowerBound: opt, Stats: &s})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
	if s.LowerBound < opt {
		t.Fatalf("LowerBound = %d, want >= seeded %d", s.LowerBound, opt)
	}
}
