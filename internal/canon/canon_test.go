package canon

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
)

// relabel returns a copy of g with node v renamed to perm[v].
func relabel(g *dag.DAG, perm []dag.NodeID) *dag.DAG {
	h := dag.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			h.AddEdge(perm[v], perm[w])
		}
	}
	return h
}

func randPerm(n int, rng *rand.Rand) []dag.NodeID {
	p := make([]dag.NodeID, n)
	for i, v := range rng.Perm(n) {
		p[i] = dag.NodeID(v)
	}
	return p
}

// pinnedKeys are the canonical digests and permutations of the canon
// test corpus as computed before the labeling search pruned branches
// by automorphisms (the permutation as the first 16 hex digits of the
// SHA-256 of its comma-joined decimal form). Pruning skips only
// branches whose leaves repeat serializations seen earlier, so the
// canonical leaf, and with it every key, must stay byte-identical.
var pinnedKeys = []struct {
	name   string
	g      func() *dag.DAG
	digest string
	perm   string
}{
	{"Pyramid(3)", func() *dag.DAG { return daggen.Pyramid(3) }, "1d5579bb6598f0026cb70ed3392c0c5d8a1dab7a291542628ca4d2db663c6a7d", "6d51634ebaf6aec3"},
	{"Pyramid(4)", func() *dag.DAG { return daggen.Pyramid(4) }, "2dec5c5f1687f56a8ad9cfdb44fafe3fb09fddf541c9812010b96c44ed8ffe04", "205fcbcd7703583a"},
	{"Pyramid(5)", func() *dag.DAG { return daggen.Pyramid(5) }, "052cc8640fce849209b8dc4f98c6d8320e414e7036656a1cc2030c429046c8e3", "51022a1eaba49ebd"},
	{"Pyramid(6)", func() *dag.DAG { return daggen.Pyramid(6) }, "4d75043a38dacf988b850f1fef31c76955ed2edb0629b64ea22d16513b2c2b75", "96835d231773ebc4"},
	{"Pyramid(12)", func() *dag.DAG { return daggen.Pyramid(12) }, "060fa7b851f35a290c9d02f5bd5c7acca1aa2e0208a7b2a603cd41ff7424fd70", "90394b46d6bc0d4f"},
	{"Pyramid(16)", func() *dag.DAG { return daggen.Pyramid(16) }, "2b404133f4e6a8f28b47cbb47ef2d0456a9a0bb14330f7819137df14fd840075", "5831a31c5a458d3d"},
	{"Pyramid(20)", func() *dag.DAG { return daggen.Pyramid(20) }, "ec9fef45352b8000b8502adeb45d5cd1d47f5c094bd4691453e37e7ce9182ae0", "23356009a5f58689"},
	{"FFT(2)", func() *dag.DAG { return daggen.FFT(2) }, "e251dbd8ae78fa3dd4d6f27da5a8cee51aac050230986ca3aa2ca3a6e16489e2", "faee498403aec9ce"},
	{"FFT(3)", func() *dag.DAG { return daggen.FFT(3) }, "efe8e1dd124800dd44a40728fa9165f36e3751fa5c08121583506931aef2033d", "9864b29e9eb1a190"},
	{"FFT(4)", func() *dag.DAG { return daggen.FFT(4) }, "2f676401a236ae875170d695b0f3a9a914080558fdb42e32288f0a0ac2207a1a", "eabf529f042f1c37"},
	{"Chain(5)", func() *dag.DAG { return daggen.Chain(5) }, "9ff8a2984ab7b789b1ba95c72627673e68bd346f27b9b028ba21591e7b9636c0", "96c771992aff426b"},
	{"Chain(6)", func() *dag.DAG { return daggen.Chain(6) }, "94c892cc9590abe6291af1e9a97f4f8cdf7d5c72550f6f32dde83f93012ce5db", "c482a31c51804611"},
	{"Chain(7)", func() *dag.DAG { return daggen.Chain(7) }, "12b2e93d4086799580756e869970fc855b280fadeb5f8b1d27c7cef8489236e0", "a8c9dfa680879581"},
	{"Chain(9)", func() *dag.DAG { return daggen.Chain(9) }, "9219e04841594804ee9ed8b84a306fb1dfbf1b2087aea50273276b5497a1c683", "3af6b400b3943ec6"},
	{"BinaryTree(3)", func() *dag.DAG { return daggen.BinaryTree(3) }, "b8a17bba45c8cbfd570268cf663c639db5198638a1f8e9e9e1ed09f76fa1c1aa", "0cfddf29b41c2e61"},
	{"BinaryTree(4)", func() *dag.DAG { return daggen.BinaryTree(4) }, "2fe349c6d8b6730a4d6ff65ecdcfc1175c2672b5eff835eddb1fb4bfc4138e4d", "ae17af08c841f415"},
	{"Grid(2,2)", func() *dag.DAG { return daggen.Grid(2, 2) }, "4eddafe46c7394b96cf32a92fe59f0d312451acb1031b4a8ad011409234b7ac2", "8e696c618fe4ccc6"},
	{"Grid(2,3)", func() *dag.DAG { return daggen.Grid(2, 3) }, "10ede78ae8f18e95d77ed57679c451de1199519650f857759744e1a3f96e1180", "de7ba3142bdd2124"},
	{"Grid(2,4)", func() *dag.DAG { return daggen.Grid(2, 4) }, "8cc2f57dfba924247338d8101e0464e99a8edeea1abd751d9fba7cbd10ece8fd", "bf4fd8f82ecd3b3a"},
	{"Grid(3,3)", func() *dag.DAG { return daggen.Grid(3, 3) }, "bb0fe19f8f66228c7cb85248739efb210650e7dadf25a8569401e3617199e4a0", "256a5468d0915fc2"},
	{"Grid(4,4)", func() *dag.DAG { return daggen.Grid(4, 4) }, "447b8cb393ee3931e471f7192e137c09411b655ab8e82ad1bc5600aa890579fd", "89da01d6dc86e37c"},
	{"Grid(5,5)", func() *dag.DAG { return daggen.Grid(5, 5) }, "863cce508c645c1a9243359c1081b3176f400cb963f7d20bc399ae6d51e90c2a", "c4c2b6c7e3f21038"},
	{"Grid(8,8)", func() *dag.DAG { return daggen.Grid(8, 8) }, "2c32853fd20f4e516a6459aec11f68d04decb814d575b6b7b2f79f1e9823c5af", "8fe0af873e870247"},
	{"Grid(10,10)", func() *dag.DAG { return daggen.Grid(10, 10) }, "7beb15f1670e8f5bec9c9727416f6c86c504015e26f09e06246ad41a449acca4", "1418fbff51fc11e9"},
	{"Stencil1D(4,2)", func() *dag.DAG { return daggen.Stencil1D(4, 2) }, "a239b47760fa05ce49640b64e599acbec347238ce3f98fc665046b4d21329217", "d5b25563ffff4337"},
	{"MatMul(2)", func() *dag.DAG { return daggen.MatMul(2) }, "54c4fd34087acda951c668f7a0f5231903e4da7889bf8a7661657b8f1ac1fce2", "60ceec5dec9283f4"},
	{"RandomLayered(3,4,2,5)", func() *dag.DAG { return daggen.RandomLayered(3, 4, 2, 5) }, "a72153a95b725a49da6c1bd3a796e5b08228a16843ca0e0df33488d4cbe7de31", "5d4ee5b99849531c"},
	{"RandomLayered(2,3,2,9)", func() *dag.DAG { return daggen.RandomLayered(2, 3, 2, 9) }, "99189280c8f4494be653e61f0e09ef57c68b6df461b9c635fe3f51b924abdcf2", "373e3fc9d71e880d"},
	{"RandomLayered(20,20,2,1)", func() *dag.DAG { return daggen.RandomLayered(20, 20, 2, 1) }, "0bb3c9c4c5b4835015869b05769e978a54250e3a95e965de59c4117636c4ec09", "74548d3e72c73135"},
	{"singleton", func() *dag.DAG { return dag.New(1) }, "cbbc48750debb8535093b3deaf88ac7f4cff87425576a58de2bac754acdb4616", "5feceb66ffc86f38"},
	{"path3", func() *dag.DAG { return daggen.Chain(3) }, "2d48935693a8649d427905452c4f055552befd82eed7f0fbb003c73a7e21c622", "93e83202bc995e39"},
}

func TestCanonicalKeysPinned(t *testing.T) {
	for _, k := range pinnedKeys {
		l := Search(k.g())
		d, perm := l.Digest, l.Perm
		ps := make([]string, len(perm))
		for i, v := range perm {
			ps[i] = fmt.Sprint(v)
		}
		ph := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(ps, ","))))[:16]
		if got := fmt.Sprintf("%x", d); got != k.digest || ph != k.perm {
			t.Errorf("%s: key %s perm %s, pinned %s perm %s", k.name, got, ph, k.digest, k.perm)
		}
	}
}

// TestGroupOrders pins |Aut(g)| on the instances the exact engines
// reduce by symmetry, and checks every chain against its generators'
// closure where that closure is small enough to enumerate.
func TestGroupOrders(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     *dag.DAG
		order int64
	}{
		{"fft(3)", daggen.FFT(3), 16384},
		{"fft(2)", daggen.FFT(2), 64},
		{"pyramid(5)", daggen.Pyramid(5), 2},
		{"grid(4,4)", daggen.Grid(4, 4), 2},
		{"bintree(4)", daggen.BinaryTree(4), 128},
		{"chain(6)", daggen.Chain(6), 1},
		{"singleton", dag.New(1), 1},
	} {
		l := Search(c.g)
		gr := l.Group()
		if got := gr.Order().Int64(); got != c.order {
			t.Errorf("%s: |Aut| = %d, want %d", c.name, got, c.order)
		}
		if gr.Trivial() != (c.order == 1) {
			t.Errorf("%s: Trivial() = %v for order %d", c.name, gr.Trivial(), c.order)
		}
		if c.order <= 1<<14 {
			if got := closureSize(c.g.N(), l.gens); got != c.order {
				t.Errorf("%s: generators close to %d elements, want %d", c.name, got, c.order)
			}
		}
	}
}

// closureSize enumerates the group generated by gens.
func closureSize(n int, gens []Perm) int64 {
	key := func(p Perm) string { return fmt.Sprint([]dag.NodeID(p)) }
	id := Perm(identity(n))
	seen := map[string]bool{key(id): true}
	for q := []Perm{id}; len(q) > 0; q = q[1:] {
		for _, g := range gens {
			if c := compose(g, q[0]); !seen[key(c)] {
				seen[key(c)] = true
				q = append(q, c)
			}
		}
	}
	return int64(len(seen))
}

// TestGroupElementsAreAutomorphisms: every generator and every
// transversal element is an automorphism, and transversal element j of
// level i carries the base point onto a distinct orbit point while
// fixing the earlier base points.
func TestGroupElementsAreAutomorphisms(t *testing.T) {
	for name, g := range map[string]*dag.DAG{
		"fft(3)":     daggen.FFT(3),
		"fft(4)":     daggen.FFT(4),
		"bintree(5)": daggen.BinaryTree(5),
		"grid(3,3)":  daggen.Grid(3, 3),
		"matmul(2)":  daggen.MatMul(2),
		"layered":    daggen.RandomLayered(6, 6, 2, 3),
	} {
		l := Search(g)
		gr := l.Group()
		for _, p := range l.gens {
			if !isAutomorphism(g, p) {
				t.Fatalf("%s: generator %v is not an automorphism", name, p)
			}
		}
		for i := 0; i < gr.Levels(); i++ {
			b := gr.Base()[i]
			seen := map[dag.NodeID]bool{}
			for j, u := range gr.Transversal(i) {
				if !isAutomorphism(g, u) {
					t.Fatalf("%s: level %d element %d is not an automorphism", name, i, j)
				}
				if j == 0 && !isIdentity(u) {
					t.Fatalf("%s: level %d element 0 is not the identity", name, i)
				}
				for _, e := range gr.Base()[:i] {
					if u[e] != e {
						t.Fatalf("%s: level %d element %d moves earlier base point %d", name, i, j, e)
					}
				}
				if seen[u[b]] {
					t.Fatalf("%s: level %d maps the base point to %d twice", name, i, u[b])
				}
				seen[u[b]] = true
			}
		}
	}
}

// TestCanonicalInvariance: relabeled copies of a graph get the same
// digest and the same group order, and both permutations map onto the
// same canonical graph.
func TestCanonicalInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, g := range map[string]*dag.DAG{
		"pyramid4":  daggen.Pyramid(4),
		"fft2":      daggen.FFT(2),
		"fft3":      daggen.FFT(3),
		"chain9":    daggen.Chain(9),
		"tree3":     daggen.BinaryTree(3),
		"grid33":    daggen.Grid(3, 3),
		"layered":   daggen.RandomLayered(3, 4, 2, 5),
		"singleton": dag.New(1),
	} {
		l0 := Search(g)
		order := l0.Group().Order()
		for trial := 0; trial < 5; trial++ {
			h := relabel(g, randPerm(g.N(), rng))
			l1 := Search(h)
			if l0.Digest != l1.Digest {
				t.Fatalf("%s: digest changed under relabeling (trial %d)", name, trial)
			}
			if !bytes.Equal(serialize(g, l0.Perm), serialize(h, l1.Perm)) {
				t.Fatalf("%s: permutations map onto different graphs (trial %d)", name, trial)
			}
			if o := l1.Group().Order(); o.Cmp(order) != 0 {
				t.Fatalf("%s: group order %s changed to %s under relabeling", name, order, o)
			}
		}
	}
}

// TestCanonicalFlag: Canonical holds exactly when g's identity
// serialization is the canonical one, and a graph relabeled by its own
// labeling reads as canonical, with the same digest and group order
// (fft(4) spends the whole search budget).
func TestCanonicalFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	notCanonical := 0
	for name, g := range map[string]*dag.DAG{
		"pyramid4":       daggen.Pyramid(4),
		"fft3":           daggen.FFT(3),
		"fft4":           daggen.FFT(4),
		"chain9":         daggen.Chain(9),
		"chain9-shuffle": relabel(daggen.Chain(9), randPerm(9, rng)),
		"grid33":         daggen.Grid(3, 3),
		"layered":        daggen.RandomLayered(3, 4, 2, 5),
		"singleton":      dag.New(1),
		"empty":          dag.New(0),
	} {
		l := Search(g)
		if want := bytes.Equal(serialize(g, identity(g.N())), serialize(g, l.Perm)); l.Canonical != want {
			t.Errorf("%s: Canonical = %t, identity serialization canonical: %t", name, l.Canonical, want)
		}
		if !l.Canonical {
			notCanonical++
		}
		c := Search(relabel(g, l.Perm))
		if !c.Canonical || c.Digest != l.Digest || c.Group().Order().Cmp(l.Group().Order()) != 0 {
			t.Errorf("%s relabeled by its labeling: canonical %t, same digest %t, group order %s (was %s)",
				name, c.Canonical, c.Digest == l.Digest, c.Group().Order(), l.Group().Order())
		}
	}
	if notCanonical == 0 {
		t.Error("no input read as non-canonical")
	}
}

// TestLargeGraphsTrivial: above maxN nodes Search keys the identity
// labeling, reads the graph as canonical and builds the trivial group,
// all fast.
func TestLargeGraphsTrivial(t *testing.T) {
	start := time.Now()
	g := daggen.Chain(4000)
	l := Search(g)
	for v, c := range l.Perm {
		if c != dag.NodeID(v) {
			t.Fatalf("perm[%d] = %d above maxN, want the identity", v, c)
		}
	}
	if gr := l.Group(); !gr.Trivial() || l.Symmetric() || !l.Canonical {
		t.Fatalf("above maxN: group order %s, symmetric %t, canonical %t", gr.Order(), l.Symmetric(), l.Canonical)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("chain(4000) took %s", d)
	}
}

// FuzzCanonicalInvariance guards the canonical labeling: any parsed
// DAG must digest identically, and have the same group order, under a
// relabeling derived from the input bytes.
func FuzzCanonicalInvariance(f *testing.F) {
	seedGraph := func(g *dag.DAG) {
		var buf bytes.Buffer
		if err := g.WriteText(&buf); err == nil {
			f.Add(buf.Bytes(), int64(1))
		}
	}
	seedGraph(daggen.Pyramid(3))
	seedGraph(daggen.FFT(2))
	seedGraph(daggen.Chain(5))
	seedGraph(daggen.Grid(2, 2))
	seedGraph(daggen.RandomLayered(2, 3, 2, 9))
	seedGraph(daggen.BinaryTree(3))
	f.Add([]byte("nodes 3\nedge 0 1\nedge 1 2\n"), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		g, err := dag.ReadText(bytes.NewReader(data))
		if err != nil || g.N() == 0 || g.N() > 64 {
			return
		}
		l0 := Search(g)
		if len(l0.Perm) != g.N() {
			t.Fatalf("perm length %d != n %d", len(l0.Perm), g.N())
		}
		gr := l0.Group()
		for _, p := range l0.gens {
			if !isAutomorphism(g, p) {
				t.Fatalf("generator %v is not an automorphism", p)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		h := relabel(g, randPerm(g.N(), rng))
		l1 := Search(h)
		if l0.Digest != l1.Digest {
			t.Fatalf("digest not invariant under relabeling (n=%d)", g.N())
		}
		if o0, o1 := gr.Order(), l1.Group().Order(); o0.Cmp(o1) != 0 {
			t.Fatalf("group order %s changed to %s under relabeling (n=%d)", o0, o1, g.N())
		}
	})
}

// BenchmarkCanonicalPyramid6 tracks the canonical-key cost on a
// 21-node symmetric instance (the worst common case: symmetry forces
// individualization).
func BenchmarkCanonicalPyramid6(b *testing.B) {
	g := daggen.Pyramid(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Search(g)
	}
}

// BenchmarkAutomorphismsFFT3 tracks the group computation serial A*
// pays before an fft(3) search.
func BenchmarkAutomorphismsFFT3(b *testing.B) {
	g := daggen.FFT(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Search(g).Group()
	}
}
