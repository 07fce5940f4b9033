package dag

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustTopo(t *testing.T, g *DAG) []NodeID {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	return order
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.N(), g.M())
	}
	if len(mustTopo(t, g)) != 0 {
		t.Fatal("empty graph topo order should be empty")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var g DAG
	v := g.AddNode()
	w := g.AddNode()
	g.AddEdge(v, w)
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("zero-value DAG: n=%d m=%d", g.N(), g.M())
	}
}

func TestAddEdgeDuplicate(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if g.M() != 1 {
		t.Fatalf("duplicate edge counted: m=%d", g.M())
	}
	if len(g.Preds(1)) != 1 || len(g.Succs(0)) != 1 {
		t.Fatal("duplicate edge stored twice")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	g := New(1)
	g.AddEdge(0, 0)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	g := New(2)
	g.AddEdge(0, 5)
}

func TestHasEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("HasEdge(0,1) = false")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("HasEdge(1,0) = true")
	}
	if g.HasEdge(0, 99) || g.HasEdge(-1, 0) {
		t.Fatal("HasEdge out of range returned true")
	}
}

func TestSourcesSinks(t *testing.T) {
	// 0 -> 1 -> 2,  3 isolated
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	srcs := g.Sources()
	sinks := g.Sinks()
	if len(srcs) != 2 || srcs[0] != 0 || srcs[1] != 3 {
		t.Fatalf("sources = %v", srcs)
	}
	if len(sinks) != 2 || sinks[0] != 2 || sinks[1] != 3 {
		t.Fatalf("sinks = %v", sinks)
	}
	if !g.IsSource(0) || g.IsSource(1) || !g.IsSink(2) || g.IsSink(0) {
		t.Fatal("IsSource/IsSink wrong")
	}
}

func TestTopoOrderChain(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	order := mustTopo(t, g)
	for i, v := range order {
		if int(v) != i {
			t.Fatalf("chain topo order = %v", order)
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g := New(6)
	g.AddEdge(5, 2)
	g.AddEdge(3, 2)
	g.AddEdge(2, 0)
	a := mustTopo(t, g)
	b := mustTopo(t, g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic topo: %v vs %v", a, b)
		}
	}
	// Smallest-first: 1 and 4 are isolated sources, 3 < 5.
	if a[0] != 1 {
		t.Fatalf("expected node 1 first, got %v", a)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g := New(n)
		// Random edges respecting ID order => guaranteed acyclic.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					g.AddEdge(NodeID(i), NodeID(j))
				}
			}
		}
		order := mustTopo(t, g)
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Succs(NodeID(u)) {
				if pos[u] >= pos[v] {
					t.Fatalf("edge %d->%d violated in topo order", u, v)
				}
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Fatalf("expected ErrCycle, got %v", err)
	}
	if err := g.Validate(); err != ErrCycle {
		t.Fatalf("Validate expected ErrCycle, got %v", err)
	}
}

func TestMaxInDegree(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 4)
	g.AddEdge(1, 4)
	g.AddEdge(2, 4)
	g.AddEdge(3, 4)
	if d := g.MaxInDegree(); d != 4 {
		t.Fatalf("Δ = %d, want 4", d)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.SetLabel(0, "a")
	c := g.Clone()
	c.AddEdge(1, 2)
	c.SetLabel(0, "b")
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone not independent: g.m=%d c.m=%d", g.M(), c.M())
	}
	if g.Label(0) != "a" || c.Label(0) != "b" {
		t.Fatal("labels shared between clone and original")
	}
}

func TestReachable(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	r := g.Reachable(0)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Reachable(0) = %v", r)
		}
	}
	r2 := g.Reachable(0, 3)
	if !r2[3] || !r2[4] {
		t.Fatalf("Reachable(0,3) = %v", r2)
	}
}

func TestAncestors(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	a := g.Ancestors(3)
	want := []bool{true, true, true, true, false}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("Ancestors(3) = %v", a)
		}
	}
}

func TestLongestPath(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 4)
	lp, err := g.LongestPathLen()
	if err != nil || lp != 3 {
		t.Fatalf("LongestPathLen = %d, %v; want 3", lp, err)
	}
}

func TestComputeStats(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	st := g.ComputeStats()
	if st.Nodes != 4 || st.Edges != 3 || st.Sources != 2 || st.Sinks != 1 ||
		st.MaxInDeg != 2 || st.MaxOutDeg != 1 || st.LongestPath != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.SetLabel(3, "sink node")
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d", g2.N(), g2.M())
	}
	if !g2.HasEdge(0, 2) || !g2.HasEdge(1, 2) || !g2.HasEdge(2, 3) {
		t.Fatal("round trip lost edges")
	}
	if g2.Label(3) != "sink node" {
		t.Fatalf("round trip label = %q", g2.Label(3))
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",                                      // missing nodes
		"edge 0 1",                              // edge before nodes
		"nodes 2\nedge 0 5",                     // out of range
		"nodes 2\nedge 0 0",                     // self loop
		"nodes -1",                              // negative
		"nodes 2\nfrobnicate 1",                 // unknown directive
		"nodes 2\nnodes 2",                      // duplicate
		"nodes 2\nedge 0",                       // arity
		"nodes 3\nedge 0 1\nedge 1 2\nedge 2 0", // cycle, caught by Validate
		"nodes 2\nlabel 9 x",                    // label out of range
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("ReadText(%q) succeeded, want error", c)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.SetLabel(0, "src")
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var g2 DAG
	if err := json.Unmarshal(data, &g2); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if g2.N() != 3 || g2.M() != 2 || !g2.HasEdge(0, 1) || g2.Label(0) != "src" {
		t.Fatalf("JSON round trip mismatch: %s", data)
	}
}

func TestJSONRejectsCycle(t *testing.T) {
	var g DAG
	err := json.Unmarshal([]byte(`{"nodes":2,"edges":[[0,1],[1,0]]}`), &g)
	if err == nil {
		t.Fatal("cycle accepted by UnmarshalJSON")
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.SetLabel(1, "out")
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "test"); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	s := buf.String()
	for _, want := range []string{"digraph", "n0 -> n1", "1:out"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT output missing %q:\n%s", want, s)
		}
	}
}

// Property: for random acyclic edge sets, text round-trip preserves the
// exact edge relation.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		rng := rand.New(rand.NewSource(seed))
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					g.AddEdge(NodeID(i), NodeID(j))
				}
			}
		}
		var buf bytes.Buffer
		if err := g.WriteText(&buf); err != nil {
			return false
		}
		g2, err := ReadText(&buf)
		if err != nil || g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		for u := 0; u < n; u++ {
			for j := 0; j < n; j++ {
				if g.HasEdge(NodeID(u), NodeID(j)) != g2.HasEdge(NodeID(u), NodeID(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: topological position of u precedes v for every edge (u,v), on
// arbitrary random DAGs built by the triangular construction.
func TestQuickTopoProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n) // hide the natural order
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.1 {
					g.AddEdge(NodeID(perm[i]), NodeID(perm[j]))
				}
			}
		}
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Succs(NodeID(u)) {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopoOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 2000
	g := New(n)
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			j := i + 1 + rng.Intn(n)
			if j < n {
				g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRelabel: the relabeled copy carries every edge and label through
// the permutation, its adjacency lists are sorted, and it does not
// share them with the original.
func TestRelabel(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 0)
	g.AddEdge(3, 1)
	g.AddEdge(2, 1)
	g.AddEdge(0, 1)
	g.SetLabel(3, "top")
	perm := []NodeID{2, 0, 3, 1}
	h := g.Relabel(perm)
	if h.N() != 4 || h.M() != g.M() {
		t.Fatalf("relabeled copy has %d nodes, %d edges", h.N(), h.M())
	}
	for u := 0; u < 4; u++ {
		for _, v := range g.Succs(NodeID(u)) {
			if !h.HasEdge(perm[u], perm[v]) {
				t.Fatalf("edge %d->%d lost as %d->%d", u, v, perm[u], perm[v])
			}
		}
		if !slices.IsSorted(h.Preds(NodeID(u))) || !slices.IsSorted(h.Succs(NodeID(u))) {
			t.Fatalf("node %d: unsorted lists %v / %v", u, h.Preds(NodeID(u)), h.Succs(NodeID(u)))
		}
	}
	if h.Label(perm[3]) != "top" {
		t.Fatalf("label moved to %q", h.Label(perm[3]))
	}
	h.AddEdge(perm[2], perm[0])
	if g.HasEdge(2, 0) || g.M() != 4 {
		t.Fatal("adding to the copy changed the original")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}
