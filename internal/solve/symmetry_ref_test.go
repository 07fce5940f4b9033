package solve

import (
	"math/rand"
	"reflect"
	"testing"

	"rbpebble/internal/canon"
	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/reduce"
	"rbpebble/internal/ugraph"
)

// refCanonize is the definition of the representative, kept as the
// reference for symmetry.canonize. Level by level it builds the full
// image of the key under the inverse of every transversal element,
// node by node through the permutation (node x of the image holds what
// node u(x) holds in the key), and applies the first smallest image
// under less, the identity's first. It returns the representative and
// the element applied at each level (-1: identity), and counts in ties
// the candidates that tied a non-identity best at the base point.
func refCanonize(s *symmetry, key pebble.PackedKey, ties *int) (pebble.PackedKey, []int) {
	w := s.w
	cur := append(pebble.PackedKey(nil), key...)
	choice := make([]int, len(s.levels))
	img := make(pebble.PackedKey, 3*w)
	for li, l := range s.levels {
		choice[li] = -1
		best := append(pebble.PackedKey(nil), cur...)
		for ei, e := range l.elems {
			clear(img)
			for x, ux := range e.u {
				for seg := 0; seg < 3; seg++ {
					img[seg*w+x/64] |= cur[seg*w+int(ux)/64] >> (int(ux) % 64) & 1 << (x % 64)
				}
			}
			if choice[li] >= 0 && s.code(img, l.base) == s.code(best, l.base) {
				*ties++
			}
			if s.less(img, best) {
				choice[li] = ei
				copy(best, img)
			}
		}
		cur = best
	}
	return cur, choice
}

// canonizeFuzzGraphs are the graphs FuzzCanonizeMatchesReference draws
// from: fft(3) (19 transversal elements), a two-word fft, a binary
// tree, the 85-node Theorem 2 reduction of the Petersen graph (two-word
// keys, 33 elements) and a random layered DAG with three transposition
// levels.
var canonizeFuzzGraphs = []struct {
	name string
	g    func() *dag.DAG
}{
	{"fft(3)", func() *dag.DAG { return daggen.FFT(3) }},
	{"wide", wideFFT},
	{"bintree(4)", func() *dag.DAG { return daggen.BinaryTree(4) }},
	{"hampath(Petersen)", func() *dag.DAG { return reduce.NewHamPath(ugraph.Petersen()).G }},
	{"layered5x5-s2", func() *dag.DAG { return daggen.RandomLayered(5, 5, 2, 2) }},
}

// canonicalSymmetry returns the symmetry serial A* searches g with: the
// group of g's canonical relabeling.
func canonicalSymmetry(g *dag.DAG) *symmetry {
	_, sym := refSymmetricForm(g)
	return sym
}

// refSymmetricForm is the reference for symmetricForm: the two-search
// form. One labeling search relabels g into canonical numbering, and a
// second one, on the relabeled DAG, finds the group. It returns the
// relabeled DAG and its symmetry, or g and nil when that group is
// trivial.
func refSymmetricForm(g *dag.DAG) (*dag.DAG, *symmetry) {
	q := g.Relabel(canon.Search(g).Perm)
	sym := newSymmetry(canon.Search(q).Group(), 3*((q.N()+63)/64))
	if sym == nil {
		return g, nil
	}
	return q, sym
}

// canonizeFuzzKeys is the number of random keys one fuzz case canonizes.
const canonizeFuzzKeys = 64

// FuzzCanonizeMatchesReference requires canonize, which compares
// candidates on the nodes they move and builds only the winner's
// image, to return exactly the reference's representative and per-level
// choice on random keys. A key sets each of its bits at rate
// (density%4+1)/8, so sparse keys, whose nodes mostly tie at code 0,
// are common. Under plain go test it runs the seed slice and requires
// it to cover every graph, a non-identity choice and a tie between two
// non-identity candidates.
func FuzzCanonizeMatchesReference(f *testing.F) {
	nseeds := 0
	for i := 0; i < 4*len(canonizeFuzzGraphs); i++ {
		f.Add(int64(i), uint8(i), uint8(i/len(canonizeFuzzGraphs)))
		nseeds++
	}
	syms := make([]*symmetry, len(canonizeFuzzGraphs))
	graphs := make([]int, len(canonizeFuzzGraphs))
	var runs, keys, applied, ties int
	f.Fuzz(func(t *testing.T, seed int64, graph, density uint8) {
		runs++
		gi := int(graph) % len(canonizeFuzzGraphs)
		if syms[gi] == nil {
			if syms[gi] = canonicalSymmetry(canonizeFuzzGraphs[gi].g()); syms[gi] == nil {
				t.Fatalf("%s: no symmetry", canonizeFuzzGraphs[gi].name)
			}
		}
		s := syms[gi]
		n := len(s.levels[0].elems[0].u)
		graphs[gi]++
		rng := rand.New(rand.NewSource(seed))
		rate := int(density%4) + 1
		for trial := 0; trial < canonizeFuzzKeys; trial++ {
			key := make(pebble.PackedKey, 3*s.w)
			for v := 0; v < n; v++ {
				for seg := 0; seg < 3; seg++ {
					if rng.Intn(8) < rate {
						key[seg*s.w+v/64] |= 1 << (v % 64)
					}
				}
			}
			want, wantChoice := refCanonize(s, key, &ties)
			got := append(pebble.PackedKey(nil), key...)
			s.canonize(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s, key %x: representative %x, reference %x", canonizeFuzzGraphs[gi].name, key, got, want)
				}
			}
			for li, ei := range wantChoice {
				if s.choice[li] != ei {
					t.Fatalf("%s, key %x: choice %v, reference %v", canonizeFuzzGraphs[gi].name, key, s.choice, wantChoice)
				}
				if ei >= 0 {
					applied++
				}
			}
			keys++
		}
	})
	if runs != nseeds {
		return // fuzzing, or a filtered run: the counts cover another set
	}
	f.Logf("%d keys compared; %d non-identity choices, %d ties between non-identity candidates", keys, applied, ties)
	for gi, c := range graphs {
		if c == 0 {
			f.Errorf("the seed slice missed %s", canonizeFuzzGraphs[gi].name)
		}
	}
	if applied == 0 || ties == 0 {
		f.Errorf("the seed slice missed a path: %d non-identity choices, %d non-identity ties", applied, ties)
	}
}

// symFormFuzzGraph decodes a fuzz input into a DAG: small random
// layered DAGs (often symmetric), sparse random DAGs (mostly
// asymmetric), fft(3), binary trees, pyramids and fft(4), whose
// labeling search runs out of its budget.
func symFormFuzzGraph(seed int64, shape uint8) *dag.DAG {
	a := int(shape / 6 % 4)
	switch shape % 6 {
	case 0:
		return daggen.RandomLayered(2+a, 2+int(shape/24%4), 2, seed)
	case 1:
		n := 6 + 5*a
		return daggen.RandomTriangular(n, 2.5/float64(n), seed)
	case 2:
		return daggen.FFT(3)
	case 3:
		return daggen.BinaryTree(3 + a%2)
	case 4:
		return daggen.Pyramid(3 + a)
	default:
		return daggen.FFT(4)
	}
}

// FuzzSymmetricFormMatchesReference requires symmetricForm, which runs
// one labeling search and a second only when its input is symmetric and
// not in canonical numbering, to prepare the search refSymmetricForm's
// two searches prepare: the same searched DAG (the input graph itself
// when the input is already canonical), the same chain bases and
// transversals, and a back map that is an isomorphism from the searched
// DAG onto the caller's. The input is a symFormFuzzGraph as generated
// (form%3 == 0), under a random relabeling (1), or in its own canonical
// numbering (2). Under plain go test it runs the seed slice and
// requires it to cover a trivial group, a symmetric canonical input, a
// symmetric input that needs relabeling, and fft(4).
func FuzzSymmetricFormMatchesReference(f *testing.F) {
	nseeds := 0
	for shape := 0; shape < 12; shape++ {
		for form := 0; form < 3; form++ {
			f.Add(int64(shape*3+form), uint8(shape), uint8(form))
			nseeds++
		}
	}
	never := func() bool { return false }
	var runs, trivial, canonical, relabeled, fft4 int
	f.Fuzz(func(t *testing.T, seed int64, shape, form uint8) {
		runs++
		g := symFormFuzzGraph(seed, shape)
		switch form % 3 {
		case 1:
			rng := rand.New(rand.NewSource(seed))
			perm := make([]dag.NodeID, g.N())
			for v, w := range rng.Perm(g.N()) {
				perm[v] = dag.NodeID(w)
			}
			g = g.Relabel(perm)
		case 2:
			g = g.Relabel(canon.Search(g).Perm)
		}
		p := Problem{G: g, Model: pebble.NewModel(pebble.Oneshot), R: pebble.MinFeasibleR(g)}
		start, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
		if err != nil {
			t.Skip(err)
		}
		q, qstart, sym := symmetricForm(p, start, never)
		refQ, refSym := refSymmetricForm(g)
		if (sym == nil) != (refSym == nil) {
			t.Fatalf("symmetry %t, reference %t", sym != nil, refSym != nil)
		}
		if shape%6 == 5 {
			fft4++
		}
		if sym == nil {
			trivial++
			if q.G != g || qstart != start {
				t.Fatal("a search without symmetry must run on the input")
			}
			return
		}
		if canon.Search(g).Canonical {
			canonical++
			if q.G != g {
				t.Fatal("canonical input was relabeled")
			}
		} else {
			relabeled++
		}
		n := g.N()
		if q.G.N() != n || q.G.M() != refQ.M() || q.G.M() != g.M() {
			t.Fatalf("searched DAG has %d nodes and %d edges, reference %d and %d", q.G.N(), q.G.M(), refQ.N(), refQ.M())
		}
		seen := make([]bool, n)
		for u := 0; u < n; u++ {
			for _, v := range q.G.Succs(dag.NodeID(u)) {
				if !refQ.HasEdge(dag.NodeID(u), v) {
					t.Fatalf("searched edge %d->%d is not in the reference's DAG", u, v)
				}
				if !g.HasEdge(sym.back[u], sym.back[v]) {
					t.Fatalf("back map sends edge %d->%d to a non-edge", u, v)
				}
			}
			if b := sym.back[u]; b < 0 || int(b) >= n || seen[b] {
				t.Fatalf("back map %v is not a permutation", sym.back)
			}
			seen[sym.back[u]] = true
		}
		if !reflect.DeepEqual(sym.levels, refSym.levels) {
			t.Fatal("chain bases or transversals differ from the reference's")
		}
	})
	if runs != nseeds {
		return // fuzzing, or a filtered run: the counts cover another set
	}
	f.Logf("%d trivial, %d canonical, %d relabeled, %d fft(4)", trivial, canonical, relabeled, fft4)
	if trivial == 0 || canonical == 0 || relabeled == 0 || fft4 == 0 {
		f.Errorf("the seed slice missed a path: %d trivial, %d canonical, %d relabeled, %d fft(4)", trivial, canonical, relabeled, fft4)
	}
}
