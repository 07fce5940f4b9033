package solve

import (
	"errors"
	"fmt"
	"testing"

	"rbpebble/internal/dag"
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
// uses to prove a cached incumbent optimal. The bound forbids the f = opt
// plateau, so the proof must also take fewer expansions than the full
// solve.
func TestExactPruneBoundExhaustionCertifies(t *testing.T) {
	g := daggen.Pyramid(4)
	p := prob(g, pebble.Oneshot, 3)
	var full ExactStats
	ref, err := Exact(p, ExactOptions{Stats: &full})
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
	if s.Expanded >= full.Expanded {
		t.Fatalf("bounded proof expanded %d states, full solve %d", s.Expanded, full.Expanded)
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

// TestExactPruneBoundEverywhere sweeps models, conventions and DAGs with
// and without automorphisms (the random layered seeds have none;
// pyramid(3), grid(3,3) and fft(2) do, so symmetry reduction is on).
// The optimum comes from the symmetry-free Dijkstra reference. With
// PruneBound = OPT+1 the search must return OPT with a trace that
// replays; with PruneBound = OPT it must exhaust with
// ErrBoundExhausted and certify LowerBound = OPT.
func TestExactPruneBoundEverywhere(t *testing.T) {
	dags := map[string]*dag.DAG{
		"layered-s0": daggen.RandomLayered(3, 3, 2, 0),
		"layered-s1": daggen.RandomLayered(3, 3, 2, 1),
		"pyramid3":   daggen.Pyramid(3),
		"grid33":     daggen.Grid(3, 3),
		"fft2":       daggen.FFT(2),
	}
	conventions := []pebble.Convention{
		{},
		{SourcesStartBlue: true, SinksMustBeBlue: true},
	}
	for name, g := range dags {
		r := pebble.MinFeasibleR(g)
		for _, kind := range pebble.AllKinds() {
			m := pebble.NewModel(kind)
			for _, conv := range conventions {
				p := Problem{G: g, Model: m, R: r, Convention: conv}
				at := fmt.Sprintf("%s %v %s", name, kind, convName(conv))
				ref, err := Exact(p, ExactOptions{Heuristic: HeuristicOff})
				if err != nil {
					t.Fatalf("%s: reference: %v", at, err)
				}
				opt := ref.Result.Cost.Scaled(m)
				sol, err := Exact(p, ExactOptions{PruneBound: opt + 1, InitialLowerBound: opt / 2})
				if err != nil {
					t.Fatalf("%s: prune bound %d: %v", at, opt+1, err)
				}
				res, err := sol.Trace.Run(g)
				if err != nil {
					t.Fatalf("%s: trace does not replay: %v", at, err)
				}
				if got := res.Cost.Scaled(m); got != opt {
					t.Errorf("%s: bounded cost %d != optimum %d", at, got, opt)
				}
				if opt == 0 {
					continue // PruneBound 0 means no bound
				}
				var s ExactStats
				_, err = Exact(p, ExactOptions{PruneBound: opt, Stats: &s})
				if !errors.Is(err, ErrBoundExhausted) {
					t.Fatalf("%s: prune bound %d: err = %v, want ErrBoundExhausted", at, opt, err)
				}
				if s.LowerBound != opt {
					t.Errorf("%s: LowerBound = %d, want %d", at, s.LowerBound, opt)
				}
			}
		}
	}
}
