package reduce

import (
	"testing"

	"rbpebble/internal/hampath"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
	"rbpebble/internal/ugraph"
	"rbpebble/internal/vcover"
)

// --- Theorem 2: Hamiltonian Path reduction ---

func TestHamPathStructure(t *testing.T) {
	src := ugraph.Path(4) // N=4, M=3
	r := NewHamPath(src)
	if err := r.G.Validate(); err != nil {
		t.Fatal(err)
	}
	n, m := src.N(), src.M()
	if got := r.G.N(); got != n+n*(n-1)-m {
		t.Fatalf("DAG nodes = %d, want %d", got, n+n*(n-1)-m)
	}
	if len(r.G.Sinks()) != n {
		t.Fatalf("sinks = %d", len(r.G.Sinks()))
	}
	if len(r.G.Sources()) != n*(n-1)-m {
		t.Fatalf("sources = %d", len(r.G.Sources()))
	}
	if r.G.MaxInDegree() != n-1 || r.R != n {
		t.Fatalf("Δ=%d R=%d", r.G.MaxInDegree(), r.R)
	}
	// Merged contact for the edge (0,1); distinct for the non-edge (0,2).
	if r.Contact[0][1] != r.Contact[1][0] {
		t.Fatal("edge contacts not merged")
	}
	if r.Contact[0][2] == r.Contact[2][0] {
		t.Fatal("non-edge contacts merged")
	}
	for a := 0; a < n; a++ {
		if len(r.Group(a)) != n-1 {
			t.Fatalf("group %d size %d", a, len(r.Group(a)))
		}
	}
}

func TestHamPathPermutationCosts(t *testing.T) {
	src := ugraph.Path(4)
	r := NewHamPath(src)
	hp := []int{0, 1, 2, 3}
	if got := r.PermutationCostNoDel(hp); got != r.ThresholdNoDel() {
		t.Fatalf("nodel HP perm cost %d != threshold %d", got, r.ThresholdNoDel())
	}
	if got := r.PermutationCostOneshot(hp); got != r.ThresholdOneshot() {
		t.Fatalf("oneshot HP perm cost %d != threshold %d", got, r.ThresholdOneshot())
	}
	// A permutation with a non-adjacent step costs strictly more.
	bad := []int{0, 2, 1, 3}
	if r.PermutationCostNoDel(bad) <= r.ThresholdNoDel() {
		t.Fatal("non-adjacent perm not penalized (nodel)")
	}
	if r.PermutationCostOneshot(bad) <= r.ThresholdOneshot() {
		t.Fatal("non-adjacent perm not penalized (oneshot)")
	}
}

func TestHamPathPebblerMatchesFormula(t *testing.T) {
	// The engine-executed cost of a permutation must equal the closed
	// form, in both models, for graphs with and without extra edges.
	srcs := []*ugraph.Graph{
		ugraph.Path(4),
		ugraph.Cycle(4),
		ugraph.Complete(4),
		ugraph.Random(5, 0.5, 3),
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 1, 0, 2}, {2, 0, 3, 1}}
	for si, src := range srcs {
		r := NewHamPath(src)
		for _, perm := range perms {
			if src.N() != len(perm) {
				perm = append(perm, 4) // extend for N=5
			}
			for _, kind := range []pebble.ModelKind{pebble.Oneshot, pebble.NoDel} {
				_, res, err := r.Pebble(perm, pebble.NewModel(kind))
				if err != nil {
					t.Fatalf("src %d perm %v %v: %v", si, perm, kind, err)
				}
				want := r.PermutationCostOneshot(perm)
				if kind == pebble.NoDel {
					want = r.PermutationCostNoDel(perm)
				}
				if res.Cost.Transfers != want {
					t.Fatalf("src %d perm %v %v: measured %d != formula %d",
						si, perm, kind, res.Cost.Transfers, want)
				}
			}
		}
	}
}

func TestHamPathThresholdIffHP(t *testing.T) {
	// Over all permutations (via the Held-Karp DP), the minimum pebbling
	// cost hits the threshold exactly when a Hamiltonian path exists.
	srcs := []*ugraph.Graph{
		ugraph.Path(5),              // HP
		ugraph.Cycle(5),             // HP
		ugraph.Star(5),              // no HP
		ugraph.DisjointTriangles(2), // no HP (n=6)
		ugraph.Random(6, 0.4, 11),
		ugraph.Random(6, 0.2, 12),
	}
	for si, src := range srcs {
		r := NewHamPath(src)
		hasHP, _ := hampath.Solve(src)
		minCost := minPermCostOneshot(r)
		if hasHP && minCost != r.ThresholdOneshot() {
			t.Fatalf("src %d: HP exists but min cost %d != threshold %d",
				si, minCost, r.ThresholdOneshot())
		}
		if !hasHP && minCost <= r.ThresholdOneshot() {
			t.Fatalf("src %d: no HP but min cost %d <= threshold %d",
				si, minCost, r.ThresholdOneshot())
		}
	}
}

// minPermCostOneshot computes min over all visit permutations of the
// oneshot cost, using the Held-Karp visit-order DP. Transition costs are
// not purely pairwise here (edge contacts pay 2 unless endpoints are
// consecutive), but cost = (N-1) + 2M - 2·(adjacent consecutive pairs),
// so minimizing cost = maximizing adjacencies, which is pairwise.
func minPermCostOneshot(r *HamPath) int {
	n := r.Source.N()
	start := make([]int64, n)
	trans := make([][]int64, n)
	for i := 0; i < n; i++ {
		trans[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			if i != j && !r.Source.HasEdge(i, j) {
				trans[i][j] = 2 // a non-adjacent step forfeits one saving
			}
		}
	}
	cost, _ := solve.MinVisitOrder(start, trans)
	return (n - 1) + 2*(r.Source.M()-(n-1)) + int(cost)
}

func TestHamPathExactSolverAgreesSmall(t *testing.T) {
	// Full cross-validation against the state-space optimum: the
	// reduction's threshold must be the true optimal cost exactly when
	// the source has a Hamiltonian path (hampath is the oracle), and
	// the optimum must exceed it when not. Sources up to N=4 in both
	// models, plus the N=5 and N=6 rows that close in under a second:
	// Path(5) in oneshot, K5 in both and K6 in oneshot (threshold 25,
	// about 0.3 s). Nodel Star(5), Cycle(5), Path(5) and random N=5
	// sources close too, but take 1.8-8.7 s each (158,035 to 1,401,578
	// expansions on a 2-core host), too slow for this test.
	planted, _ := ugraph.RandomWithHamPath(4, 0.3, 7)
	both := []pebble.ModelKind{pebble.Oneshot, pebble.NoDel}
	for _, tc := range []struct {
		name   string
		src    *ugraph.Graph
		models []pebble.ModelKind
	}{
		{"Path(3)", ugraph.Path(3), both},
		{"K3", ugraph.Complete(3), both},
		{"Path(4)", ugraph.Path(4), both},
		{"Cycle(4)", ugraph.Cycle(4), both},
		{"Star(4)", ugraph.Star(4), both},
		{"K4", ugraph.Complete(4), both},
		{"RandomWithHamPath(4)", planted, both},
		{"Path(5)", ugraph.Path(5), []pebble.ModelKind{pebble.Oneshot}},
		{"K5", ugraph.Complete(5), both},
		{"K6", ugraph.Complete(6), []pebble.ModelKind{pebble.Oneshot}},
	} {
		r := NewHamPath(tc.src)
		hasPath, _ := hampath.Solve(tc.src)
		for _, kind := range tc.models {
			opt, err := solve.Exact(solve.Problem{G: r.G, Model: pebble.NewModel(kind), R: r.R},
				solve.ExactOptions{MaxStates: 4_000_000})
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, kind, err)
			}
			threshold := r.ThresholdOneshot()
			if kind == pebble.NoDel {
				threshold = r.ThresholdNoDel()
			}
			got := opt.Result.Cost.Transfers
			if hasPath && got != threshold {
				t.Fatalf("%s %v: exact optimum %d != threshold %d, but a Hamiltonian path exists",
					tc.name, kind, got, threshold)
			}
			if !hasPath && got <= threshold {
				t.Fatalf("%s %v: exact optimum %d <= threshold %d, but no Hamiltonian path exists",
					tc.name, kind, got, threshold)
			}
		}
	}
}

func TestHamPathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on tiny source")
		}
	}()
	NewHamPath(ugraph.New(1))
}

// --- Theorem 3: Vertex Cover reduction ---

func TestVertexCoverStructure(t *testing.T) {
	src := ugraph.Cycle(4)
	kp := 6
	r := NewVertexCover(src, kp)
	if err := r.G.Validate(); err != nil {
		t.Fatal(err)
	}
	n := src.N()
	for a := 0; a < n; a++ {
		if len(r.First[a]) != r.K || len(r.Second[a]) != r.K {
			t.Fatalf("group sizes not uniform at %d", a)
		}
		if r.G.InDegree(r.T2[a]) != r.K {
			t.Fatalf("t(%d,2) indegree %d", a, r.G.InDegree(r.T2[a]))
		}
		for b := 0; b < n; b++ {
			if b != a && r.G.InDegree(r.T1[a][b]) != r.K {
				t.Fatalf("t(%d,1,%d) indegree %d", a, b, r.G.InDegree(r.T1[a][b]))
			}
		}
	}
	// Edge (0,1): t(0,1,1) is a member of V(1,2); non-edge (0,2): t(0,1,2)
	// is a sink.
	if !r.G.HasEdge(r.T1[0][1], r.T2[1]) {
		t.Fatal("dependency edge missing")
	}
	if !r.G.IsSink(r.T1[0][2]) {
		t.Fatal("non-edge first-level target should be a sink")
	}
	if r.R != r.K+1 {
		t.Fatal("R != K+1")
	}
}

func TestVertexCoverCostTracksCoverSize(t *testing.T) {
	src := ugraph.Cycle(6) // min VC = 3
	kp := 30
	r := NewVertexCover(src, kp)
	minCover := vcover.Exact(src)
	if len(minCover) != 3 {
		t.Fatalf("cycle6 min cover = %d", len(minCover))
	}
	costFor := func(cover []int) int {
		_, res, err := r.Pebble(r.VisitsForCover(cover))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost.Transfers
	}
	optCost := costFor(minCover)
	// The dominant term is 2k'·|VC|; extras are bounded by ExtraCostBound.
	if optCost < r.CommonCost(len(minCover)) {
		t.Fatalf("cost %d below common-node lower bound %d", optCost, r.CommonCost(len(minCover)))
	}
	if optCost > r.CommonCost(len(minCover))+r.ExtraCostBound() {
		t.Fatalf("cost %d above common+extras %d", optCost, r.CommonCost(len(minCover))+r.ExtraCostBound())
	}
	// A larger cover costs ~2k' more per extra vertex.
	bigger := append(append([]int(nil), minCover...), pickNotIn(minCover, src.N()))
	biggerCost := costFor(bigger)
	diff := biggerCost - optCost
	if diff < 2*kp-r.ExtraCostBound() || diff > 2*kp+r.ExtraCostBound() {
		t.Fatalf("cover+1 cost delta = %d, want ≈ 2k' = %d", diff, 2*kp)
	}
	// The full-cover (worst) order costs about 2k'·N.
	all := make([]int, src.N())
	for i := range all {
		all[i] = i
	}
	worst := costFor(all)
	if worst <= optCost {
		t.Fatal("full cover not more expensive than optimal cover")
	}
}

func pickNotIn(cover []int, n int) int {
	in := make([]bool, n)
	for _, v := range cover {
		in[v] = true
	}
	for i := 0; i < n; i++ {
		if !in[i] {
			return i
		}
	}
	panic("cover already full")
}

func TestVertexCoverExtract(t *testing.T) {
	src := ugraph.CompleteBipartite(2, 3) // min VC = {0,1}
	r := NewVertexCover(src, 5)
	cover := vcover.Exact(src)
	visits := r.VisitsForCover(cover)
	got := r.ExtractCover(visits)
	if len(got) != len(cover) {
		t.Fatalf("extracted %v, want %v", got, cover)
	}
	for i := range got {
		if got[i] != cover[i] {
			t.Fatalf("extracted %v, want %v", got, cover)
		}
	}
	if !vcover.Verify(src, got) {
		t.Fatal("extracted set is not a cover")
	}
}

func TestVertexCoverAnyOrderYieldsCover(t *testing.T) {
	// Any dependency-respecting pebbling induces a vertex cover via its
	// non-consecutive pairs — including the one a greedy solver finds.
	src := ugraph.Random(5, 0.5, 9)
	r := NewVertexCover(src, 4)
	order, err := solve.GreedyOrder(solve.Problem{G: r.G, Model: pebble.NewModel(pebble.Oneshot), R: r.R}, solve.MostRedInputs)
	if err != nil {
		t.Fatal(err)
	}
	visits := r.VisitsFromTrace(order)
	if len(visits) != 2*src.N() {
		t.Fatalf("greedy visited %d groups, want %d", len(visits), 2*src.N())
	}
	cover := r.ExtractCover(visits)
	if !vcover.Verify(src, cover) {
		t.Fatalf("induced set %v is not a vertex cover", cover)
	}
}

func TestVertexCoverApproxMapping(t *testing.T) {
	// The δ-approximation mapping: a pebbling within δ of optimal induces
	// a cover within ~δ of minimum (up to the O(N²)/k' additive slack).
	src := ugraph.Cycle(6)
	r := NewVertexCover(src, 40)
	minCover := vcover.Exact(src)
	apxCover := vcover.TwoApprox(src)
	_, optRes, err := r.Pebble(r.VisitsForCover(minCover))
	if err != nil {
		t.Fatal(err)
	}
	_, apxRes, err := r.Pebble(r.VisitsForCover(apxCover))
	if err != nil {
		t.Fatal(err)
	}
	ratioPebble := float64(apxRes.Cost.Transfers) / float64(optRes.Cost.Transfers)
	ratioCover := float64(len(apxCover)) / float64(len(minCover))
	if diff := ratioPebble - ratioCover; diff > 0.5 || diff < -0.5 {
		t.Fatalf("pebbling ratio %.2f far from cover ratio %.2f", ratioPebble, ratioCover)
	}
}

func TestVertexCoverPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewVertexCover(ugraph.New(1), 3) },
		func() { NewVertexCover(ugraph.Path(3), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}
