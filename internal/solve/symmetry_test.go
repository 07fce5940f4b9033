package solve

import (
	"math/rand"
	"testing"

	"rbpebble/internal/canon"
	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// wideFFT is fft(2) (64 automorphisms) beside a 56-node chain: 68
// nodes, so every bitset of a packed key spans two words.
func wideFFT() *dag.DAG {
	fft := daggen.FFT(2)
	g := dag.New(fft.N() + 56)
	for u := 0; u < fft.N(); u++ {
		for _, v := range fft.Succs(dag.NodeID(u)) {
			g.AddEdge(dag.NodeID(u), v)
		}
	}
	for v := fft.N() + 1; v < g.N(); v++ {
		g.AddEdge(dag.NodeID(v-1), dag.NodeID(v))
	}
	return g
}

// TestSymmetryCanonizeStaysInOrbit: on random keys, canonize returns
// the image of the key under the map compose records, and it is a
// function of the key alone.
func TestSymmetryCanonizeStaysInOrbit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, g := range map[string]*dag.DAG{"fft(3)": daggen.FFT(3), "wide": wideFFT(), "bintree(4)": daggen.BinaryTree(4)} {
		w := (g.N() + 63) / 64
		sym := newSymmetry(canon.Search(g).Group(), 3*w)
		if sym == nil {
			t.Fatalf("%s: no symmetry", name)
		}
		for trial := 0; trial < 200; trial++ {
			key := make(pebble.PackedKey, 3*w)
			for v := 0; v < g.N(); v++ {
				for seg := 0; seg < 3; seg++ {
					if rng.Intn(3) == 0 {
						key[seg*w+v/64] |= 1 << (v % 64)
					}
				}
			}
			rep := append(pebble.PackedKey(nil), key...)
			sym.canonize(rep)
			back := make([]dag.NodeID, g.N())
			for v := range back {
				back[v] = dag.NodeID(v)
			}
			sym.compose(back, make([]dag.NodeID, g.N()))
			for x := 0; x < g.N(); x++ {
				y := int(back[x])
				for seg := 0; seg < 3; seg++ {
					if rep[seg*w+x/64]>>(x%64)&1 != key[seg*w+y/64]>>(y%64)&1 {
						t.Fatalf("%s: node %d of the representative is not node %d of the key", name, x, y)
					}
				}
			}
			again := append(pebble.PackedKey(nil), key...)
			sym.canonize(again)
			for i := range rep {
				if again[i] != rep[i] {
					t.Fatalf("%s: canonize is not deterministic", name)
				}
			}
		}
	}
}

// TestSymmetryMovedPairs: every element lists each node it moves once,
// as the pair (x, u(x)); the base point's pair comes first and the
// compared pairs ascend; and the pairs left out of comparisons are
// exactly the largest node of each cycle.
func TestSymmetryMovedPairs(t *testing.T) {
	for _, c := range canonizeFuzzGraphs {
		s := canonicalSymmetry(c.g())
		for _, l := range s.levels {
			for _, e := range l.elems {
				if e.moved[0].x != int32(l.base) {
					t.Fatalf("%s: first pair %v, base point %d", c.name, e.moved[0], l.base)
				}
				seen := map[int32]bool{}
				for i, p := range e.moved {
					if p.ux != int32(e.u[p.x]) || p.ux == p.x || seen[p.x] {
						t.Fatalf("%s: pair %v of %v", c.name, p, e.u)
					}
					seen[p.x] = true
					if i > 0 && i < e.cmp && p.x <= e.moved[i-1].x {
						t.Fatalf("%s: compared pairs out of order: %v", c.name, e.moved[:e.cmp])
					}
					top := true
					for y := e.u[p.x]; y != dag.NodeID(p.x); y = e.u[y] {
						top = top && int32(y) < p.x
					}
					if top != (i >= e.cmp) {
						t.Fatalf("%s: pair %v (index %d, %d compared) is the largest of its cycle: %t", c.name, p, i, e.cmp, top)
					}
				}
				for x, ux := range e.u {
					if int(ux) != x && !seen[int32(x)] {
						t.Fatalf("%s: moved node %d has no pair", c.name, x)
					}
				}
			}
		}
	}
}

// TestExactSymmetryWideKeys: symmetry-reduced A* on two-word keys
// reaches IDA*'s optimum (an engine without symmetry), and its trace
// replays at that cost.
func TestExactSymmetryWideKeys(t *testing.T) {
	p := prob(wideFFT(), pebble.Oneshot, 3)
	var stats ExactStats
	sol, err := Exact(p, ExactOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ExactDFS(p, ExactDFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := sol.Result.Cost.Scaled(p.Model), ref.Result.Cost.Scaled(p.Model)
	if got != want {
		t.Fatalf("symmetry-reduced A* optimum %d, IDA* %d", got, want)
	}
	if res, err := sol.Trace.Run(p.G); err != nil || res.Cost.Scaled(p.Model) != got {
		t.Fatalf("trace replays at %v (%v), solver reported %d", res.Cost, err, got)
	}
}
