package solve

import (
	"testing"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestAStarMatchesDijkstra is the admissibility regression guard: with
// the heuristic on, Exact must return costs identical to heuristic-off
// Dijkstra on small DAGs, across all four models and every convention
// combination. An inadmissible lower bound (or an unsafe dead-state or
// dead-pebble rule) would show up here as a cost mismatch.
func TestAStarMatchesDijkstra(t *testing.T) {
	instances := []struct {
		name string
		p    Problem
	}{}
	conventions := []pebble.Convention{
		{},
		{SourcesStartBlue: true},
		{SinksMustBeBlue: true},
		{SourcesStartBlue: true, SinksMustBeBlue: true},
	}
	for seed := int64(0); seed < 4; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		for _, kind := range pebble.AllKinds() {
			m := pebble.NewModel(kind)
			for _, conv := range conventions {
				instances = append(instances, struct {
					name string
					p    Problem
				}{
					name: "layered/" + m.String() + "/" + convName(conv),
					p:    Problem{G: g, Model: m, R: r, Convention: conv},
				})
			}
		}
	}
	extra := []struct {
		name string
		p    Problem
	}{
		{"pyramid3", Problem{G: daggen.Pyramid(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}},
		{"grid33", Problem{G: daggen.Grid(3, 3), Model: pebble.NewModel(pebble.Base), R: 3}},
		{"fft2", Problem{G: daggen.FFT(2), Model: pebble.NewModel(pebble.CompCost), R: 3}},
	}
	instances = append(instances, extra...)

	for _, in := range instances {
		var sOff ExactStats
		dijkstra, err := Exact(in.p, ExactOptions{Heuristic: HeuristicOff, Stats: &sOff})
		if err != nil {
			t.Fatalf("%s: Dijkstra: %v", in.name, err)
		}
		d := dijkstra.Result.Cost.Scaled(in.p.Model)
		var sOn ExactStats
		astar, err := Exact(in.p, ExactOptions{Stats: &sOn})
		if err != nil {
			t.Fatalf("%s: A*: %v", in.name, err)
		}
		if a := astar.Result.Cost.Scaled(in.p.Model); a != d {
			t.Errorf("%s: A* cost %d != Dijkstra cost %d (inadmissible heuristic or unsafe prune)",
				in.name, a, d)
		}
		if sOn.Expanded > sOff.Expanded {
			// Not a strict invariant of A*, but with an admissible bound
			// and this tie-breaking a blow-up signals a regression.
			t.Logf("%s: A* expanded %d > Dijkstra %d", in.name, sOn.Expanded, sOff.Expanded)
		}
	}
}

// TestSPartitionAdmissibleStress hammers the default bound's oneshot
// certificates (packing, pair constraints and the arrival term) against plain Dijkstra on
// random triangular DAGs at R = Δ+1 and Δ+2 — the regime where the
// full-event certificates are dense — across all models and
// conventions.
func TestSPartitionAdmissibleStress(t *testing.T) {
	conventions := []pebble.Convention{
		{},
		{SourcesStartBlue: true},
		{SinksMustBeBlue: true},
		{SourcesStartBlue: true, SinksMustBeBlue: true},
	}
	for seed := int64(0); seed < 20; seed++ {
		g := daggen.RandomTriangular(7, 0.35, seed)
		for _, dr := range []int{0, 1} {
			r := pebble.MinFeasibleR(g) + dr
			for _, conv := range conventions {
				for _, kind := range pebble.AllKinds() {
					p := Problem{G: g, Model: pebble.NewModel(kind), R: r, Convention: conv}
					a, err1 := Exact(p, ExactOptions{})
					d, err2 := Exact(p, ExactOptions{Heuristic: HeuristicOff})
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("seed %d r %d %v %s: error mismatch %v vs %v",
							seed, r, kind, convName(conv), err1, err2)
					}
					if err1 != nil {
						continue
					}
					if a.Result.Cost.Scaled(p.Model) != d.Result.Cost.Scaled(p.Model) {
						t.Fatalf("seed %d r %d %v %s: A* %v != dijkstra %v",
							seed, r, kind, convName(conv), a.Result.Cost, d.Result.Cost)
					}
				}
			}
		}
	}
}

// TestExactStatsPopulated checks the stats out-parameter.
func TestExactStatsPopulated(t *testing.T) {
	var st ExactStats
	g := daggen.Pyramid(2)
	_, err := Exact(Problem{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3},
		ExactOptions{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Expanded <= 0 || st.Pushed <= 0 || st.Distinct <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func convName(c pebble.Convention) string {
	switch {
	case c.SourcesStartBlue && c.SinksMustBeBlue:
		return "srcBlue+sinkBlue"
	case c.SourcesStartBlue:
		return "srcBlue"
	case c.SinksMustBeBlue:
		return "sinkBlue"
	default:
		return "default"
	}
}
