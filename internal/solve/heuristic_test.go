package solve

import (
	"math/rand"
	"testing"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// lbFuzzGraph decodes a fuzz input into a DAG: random layered DAGs of
// 6 to 108 nodes, fft(3) and fft(4), pyramids of 10 to 66 nodes, grids
// of 16 to 81 nodes and random DAGs of 8 to 77 nodes with an edge
// between any two nodes at rate 2/n or 3/n. Every family reaches past
// 64 nodes, so multi-word keys are covered; the fft, pyramid and grid
// families have nontrivial automorphism groups; and only the random
// DAGs have edges that skip a level, which a capacity certificate
// needs for a shell value that is also an ancestor of its event.
func lbFuzzGraph(seed int64, shape uint8) *dag.DAG {
	a, b := int(shape/5%4), int(shape/20%4)
	switch shape % 5 {
	case 0:
		return daggen.RandomLayered(3+2*a, 2+3*b, 2+int(shape/80%2), seed)
	case 1:
		return daggen.FFT(3 + a%2)
	case 2:
		return daggen.Pyramid(4 + 2*a + b%2)
	case 3:
		return daggen.Grid(4+a+b%2, 4+b+a%2)
	default:
		n := 8 + 20*a + 3*b
		return daggen.RandomTriangular(n, float64(2+int(shape/80%2))/float64(n), seed)
	}
}

// lbWalkSteps is the length of one fuzz case's random walk.
const lbWalkSteps = 400

// FuzzLowerBoundMatchesReference requires lowerBound.estimate, which
// reads the packed key word by word, to return exactly the reference
// per-bit estimator's (h, dead) on every state of a random walk: over
// every model and convention, R from Δ+1 to Δ+3, and with sym set on
// the canonical relabeling with every key canonized, as serial A*
// evaluates it. The walk takes a normal-form move (the search's own
// generator) three times in four and any legal move otherwise, and
// restarts from the start state when it reaches a dead or complete
// state or one without legal moves. Under plain go test it runs the seed
// slice and requires it to reach multi-word keys, symmetry and the
// oneshot certificates.
func FuzzLowerBoundMatchesReference(f *testing.F) {
	// The seed slice: every model under every convention, with half
	// the cases in oneshot (the only model with certificates), mostly
	// at R = Δ+1 where the pair and arrival certificates bind.
	nseeds := 0
	for conv := uint8(0); conv < 4; conv++ {
		for j := uint8(0); j < 12; j++ {
			i := conv*12 + j
			kind, slack := uint8(1), j/2%3/2 // oneshot, R = Δ+1 twice in three
			if j%2 == 1 {
				kind, slack = j/2%4, j%3
			}
			f.Add(int64(i), i*37, kind, conv, slack, j%4 < 2)
			nseeds++
		}
	}
	var runs, states, multiWord, symmetric, certified int
	f.Fuzz(func(t *testing.T, seed int64, shape, kind, conv, slack uint8, sym bool) {
		runs++
		g := lbFuzzGraph(seed, shape)
		p := Problem{
			G:          g,
			Model:      pebble.NewModel(pebble.AllKinds()[kind%4]),
			R:          pebble.MinFeasibleR(g) + int(slack%3),
			Convention: oracleConventions[conv%4],
		}
		start, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
		if err != nil {
			t.Skip(err)
		}
		var s *symmetry
		if sym {
			p, start, s = symmetricForm(p, start, func() bool { return false })
		}
		c := newSearchCtx(p, ExactOptions{}, start)
		ref := newRefLowerBound(p, HeuristicAuto, start)
		if len(c.lb.cands) != len(ref.cands) || len(c.lb.pairs) != len(ref.pairs) {
			t.Fatalf("%d capacity and %d pair certificates, reference %d and %d",
				len(c.lb.cands), len(c.lb.pairs), len(ref.cands), len(ref.pairs))
		}
		if c.lb.w > 1 {
			multiWord++
		}
		if s != nil {
			symmetric++
		}
		if len(c.lb.cands)+len(c.lb.pairs) > 0 {
			certified++
		}
		rng := rand.New(rand.NewSource(seed))
		st, view := start.Clone(), start.Clone()
		var key pebble.PackedKey
		var legal []pebble.Move
		for step := 0; step < lbWalkSteps; step++ {
			key = st.AppendPacked(key[:0])
			c.moveBuf = c.moveBuf[:0]
			c.appendMoves(st, key)
			if s != nil {
				s.canonize(key)
			}
			view.RestorePacked(key)
			h, dead := c.lb.estimate(key)
			wantH, wantDead := ref.estimate(view)
			if h != wantH || dead != wantDead {
				t.Fatalf("%s R=%d %s, step %d, state %v: estimate (%d, %t), reference (%d, %t)",
					p.Model, p.R, convName(p.Convention), step, view, h, dead, wantH, wantDead)
			}
			states++
			if dead || st.Complete() {
				st = start.Clone()
				continue
			}
			moves := c.moveBuf
			if len(moves) == 0 || rng.Intn(4) == 0 {
				legal = legal[:0]
				for v := 0; v < p.G.N(); v++ {
					for _, k := range []pebble.MoveKind{pebble.Compute, pebble.Load, pebble.Store, pebble.Delete} {
						if m := (pebble.Move{Kind: k, Node: dag.NodeID(v)}); st.CanApply(m) {
							legal = append(legal, m)
						}
					}
				}
				moves = legal
			}
			if len(moves) == 0 {
				st = start.Clone()
				continue
			}
			st.MustApply(moves[rng.Intn(len(moves))])
		}
	})
	if runs != nseeds {
		return // fuzzing, or a filtered run: the counts cover another set
	}
	f.Logf("%d states compared; %d cases with multi-word keys, %d under symmetry, %d with certificates",
		states, multiWord, symmetric, certified)
	if multiWord == 0 || symmetric == 0 || certified == 0 {
		f.Errorf("the seed slice missed a path: %d multi-word, %d symmetric, %d certified cases", multiWord, symmetric, certified)
	}
}
