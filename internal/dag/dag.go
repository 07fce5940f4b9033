// Package dag provides the directed-acyclic-graph substrate for red-blue
// pebbling. A DAG models a computation: source nodes are inputs, sinks are
// outputs, and the in-edges of a node are the values required to compute it.
//
// Nodes are dense non-negative integer IDs (0..n-1). The zero value of DAG
// is an empty graph ready to use.
package dag

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node in a DAG. IDs are dense: a DAG with n nodes uses
// IDs 0..n-1.
type NodeID int

// DAG is a directed acyclic graph with adjacency stored in both directions.
// Acyclicity is not enforced on every AddEdge (that would be quadratic);
// call Validate or TopoOrder to check.
type DAG struct {
	preds  [][]NodeID // preds[v] = nodes with an edge into v
	succs  [][]NodeID // succs[v] = nodes v has an edge to
	labels []string   // optional human-readable labels
	edges  int
}

// New returns a DAG with n nodes and no edges.
func New(n int) *DAG {
	return &DAG{
		preds:  make([][]NodeID, n),
		succs:  make([][]NodeID, n),
		labels: make([]string, n),
	}
}

// N returns the number of nodes.
func (g *DAG) N() int { return len(g.preds) }

// M returns the number of edges.
func (g *DAG) M() int { return g.edges }

// AddNode appends a new node and returns its ID.
func (g *DAG) AddNode() NodeID {
	g.preds = append(g.preds, nil)
	g.succs = append(g.succs, nil)
	g.labels = append(g.labels, "")
	return NodeID(len(g.preds) - 1)
}

// AddNodes appends k new nodes and returns their IDs in order.
func (g *DAG) AddNodes(k int) []NodeID {
	ids := make([]NodeID, k)
	for i := range ids {
		ids[i] = g.AddNode()
	}
	return ids
}

// AddLabeledNode appends a node carrying a label and returns its ID.
func (g *DAG) AddLabeledNode(label string) NodeID {
	id := g.AddNode()
	g.labels[id] = label
	return id
}

// SetLabel attaches a human-readable label to v.
func (g *DAG) SetLabel(v NodeID, label string) { g.labels[v] = label }

// Label returns the label of v (may be empty).
func (g *DAG) Label(v NodeID) string { return g.labels[v] }

// AddEdge inserts the directed edge u -> v. It panics if u or v is out of
// range or u == v; duplicate edges are ignored.
func (g *DAG) AddEdge(u, v NodeID) {
	if u == v {
		panic(fmt.Sprintf("dag: self-loop at node %d", u))
	}
	g.check(u)
	g.check(v)
	for _, w := range g.succs[u] {
		if w == v {
			return
		}
	}
	g.succs[u] = append(g.succs[u], v)
	g.preds[v] = append(g.preds[v], u)
	g.edges++
}

// RemoveInEdges deletes every edge into v. Used by gadget transformations
// that replace a node's input set with a gadget structure.
func (g *DAG) RemoveInEdges(v NodeID) {
	g.check(v)
	for _, u := range g.preds[v] {
		ss := g.succs[u]
		for i, w := range ss {
			if w == v {
				g.succs[u] = append(ss[:i], ss[i+1:]...)
				break
			}
		}
	}
	g.edges -= len(g.preds[v])
	g.preds[v] = nil
}

// HasEdge reports whether the edge u -> v exists.
func (g *DAG) HasEdge(u, v NodeID) bool {
	if int(u) >= g.N() || int(v) >= g.N() || u < 0 || v < 0 {
		return false
	}
	for _, w := range g.succs[u] {
		if w == v {
			return true
		}
	}
	return false
}

func (g *DAG) check(v NodeID) {
	if v < 0 || int(v) >= len(g.preds) {
		panic(fmt.Sprintf("dag: node %d out of range [0,%d)", v, len(g.preds)))
	}
}

// Preds returns the predecessors (inputs) of v. The returned slice is owned
// by the DAG and must not be modified.
func (g *DAG) Preds(v NodeID) []NodeID { return g.preds[v] }

// Succs returns the successors of v. The returned slice is owned by the DAG
// and must not be modified.
func (g *DAG) Succs(v NodeID) []NodeID { return g.succs[v] }

// InDegree returns the number of inputs of v.
func (g *DAG) InDegree(v NodeID) int { return len(g.preds[v]) }

// OutDegree returns the number of out-edges of v.
func (g *DAG) OutDegree(v NodeID) int { return len(g.succs[v]) }

// MaxInDegree returns Δ, the largest in-degree over all nodes. An empty
// graph has Δ = 0.
func (g *DAG) MaxInDegree() int {
	d := 0
	for v := range g.preds {
		if len(g.preds[v]) > d {
			d = len(g.preds[v])
		}
	}
	return d
}

// Sources returns all nodes with in-degree 0, in increasing ID order.
func (g *DAG) Sources() []NodeID {
	var out []NodeID
	for v := range g.preds {
		if len(g.preds[v]) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Sinks returns all nodes with out-degree 0, in increasing ID order.
func (g *DAG) Sinks() []NodeID {
	var out []NodeID
	for v := range g.succs {
		if len(g.succs[v]) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// IsSource reports whether v has no inputs.
func (g *DAG) IsSource(v NodeID) bool { return len(g.preds[v]) == 0 }

// IsSink reports whether v has no out-edges.
func (g *DAG) IsSink(v NodeID) bool { return len(g.succs[v]) == 0 }

// ErrCycle is returned by TopoOrder and Validate when the graph contains a
// directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// TopoOrder returns a topological ordering of the nodes (Kahn's algorithm,
// smallest-ID-first among ready nodes, so the order is deterministic). It
// returns ErrCycle if the graph is not acyclic.
func (g *DAG) TopoOrder() ([]NodeID, error) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.preds[v])
	}
	// Min-heap on node ID for determinism.
	h := &idHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			h.push(NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for h.len() > 0 {
		v := h.pop()
		order = append(order, v)
		for _, w := range g.succs[v] {
			indeg[w]--
			if indeg[w] == 0 {
				h.push(w)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Validate checks structural invariants: acyclicity and pred/succ mirror
// consistency. It returns nil if the graph is a well-formed DAG.
func (g *DAG) Validate() error {
	for v := range g.succs {
		for _, w := range g.succs[v] {
			if !contains(g.preds[w], NodeID(v)) {
				return fmt.Errorf("dag: edge %d->%d missing from preds", v, w)
			}
		}
	}
	for v := range g.preds {
		for _, u := range g.preds[v] {
			if !contains(g.succs[u], NodeID(v)) {
				return fmt.Errorf("dag: edge %d->%d missing from succs", u, v)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

func contains(s []NodeID, v NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph.
func (g *DAG) Clone() *DAG {
	c := New(g.N())
	c.edges = g.edges
	for v := range g.preds {
		c.preds[v] = append([]NodeID(nil), g.preds[v]...)
		c.succs[v] = append([]NodeID(nil), g.succs[v]...)
		c.labels[v] = g.labels[v]
	}
	return c
}

// Relabel returns a copy of the graph with node v renamed perm[v] (perm
// must be a permutation of the node IDs). Every adjacency list of the
// copy is sorted, so the result depends only on the renamed edge set,
// not on the order in which g's lists hold it.
func (g *DAG) Relabel(perm []NodeID) *DAG {
	n := g.N()
	c := New(n)
	c.edges = g.edges
	preds := make([]NodeID, 0, g.edges)
	succs := make([]NodeID, 0, g.edges)
	inv := make([]NodeID, n)
	for v, w := range perm {
		inv[w] = NodeID(v)
	}
	for w := 0; w < n; w++ {
		v := inv[w]
		c.labels[w] = g.labels[v]
		start := len(preds)
		for _, u := range g.preds[v] {
			preds = append(preds, perm[u])
		}
		slices.Sort(preds[start:])
		c.preds[w] = preds[start:len(preds):len(preds)]
		start = len(succs)
		for _, u := range g.succs[v] {
			succs = append(succs, perm[u])
		}
		slices.Sort(succs[start:])
		c.succs[w] = succs[start:len(succs):len(succs)]
	}
	return c
}

// Reachable returns the set of nodes reachable from the given roots
// (including the roots), as a boolean slice indexed by NodeID.
func (g *DAG) Reachable(roots ...NodeID) []bool {
	seen := make([]bool, g.N())
	stack := append([]NodeID(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		for _, w := range g.succs[v] {
			if !seen[w] {
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Ancestors returns the set of nodes from which v is reachable (including
// v itself).
func (g *DAG) Ancestors(v NodeID) []bool {
	seen := make([]bool, g.N())
	stack := []NodeID{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		for _, p := range g.preds[u] {
			if !seen[p] {
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// LongestPathLen returns the number of edges on a longest directed path.
// It returns an error if the graph has a cycle.
func (g *DAG) LongestPathLen() (int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	depth := make([]int, g.N())
	best := 0
	for _, v := range order {
		for _, w := range g.succs[v] {
			if depth[v]+1 > depth[w] {
				depth[w] = depth[v] + 1
				if depth[w] > best {
					best = depth[w]
				}
			}
		}
	}
	return best, nil
}

// Stats summarizes the structural properties of a DAG.
type Stats struct {
	Nodes       int
	Edges       int
	Sources     int
	Sinks       int
	MaxInDeg    int
	MaxOutDeg   int
	LongestPath int
}

// ComputeStats returns structural statistics for the graph. It panics on a
// cyclic graph (use Validate first on untrusted input).
func (g *DAG) ComputeStats() Stats {
	lp, err := g.LongestPathLen()
	if err != nil {
		panic(err)
	}
	maxOut := 0
	for v := range g.succs {
		if len(g.succs[v]) > maxOut {
			maxOut = len(g.succs[v])
		}
	}
	return Stats{
		Nodes:       g.N(),
		Edges:       g.M(),
		Sources:     len(g.Sources()),
		Sinks:       len(g.Sinks()),
		MaxInDeg:    g.MaxInDegree(),
		MaxOutDeg:   maxOut,
		LongestPath: lp,
	}
}

// String returns a short human-readable summary.
func (g *DAG) String() string {
	return fmt.Sprintf("DAG(n=%d, m=%d, sources=%d, sinks=%d, Δ=%d)",
		g.N(), g.M(), len(g.Sources()), len(g.Sinks()), g.MaxInDegree())
}

// SortedPreds returns a sorted copy of the predecessors of v. Useful for
// deterministic iteration in tests and serialization.
func (g *DAG) SortedPreds(v NodeID) []NodeID {
	p := append([]NodeID(nil), g.preds[v]...)
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	return p
}

// SortedSuccs returns a sorted copy of the successors of v.
func (g *DAG) SortedSuccs(v NodeID) []NodeID {
	s := append([]NodeID(nil), g.succs[v]...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// idHeap is a minimal binary min-heap of NodeIDs (avoids container/heap
// interface boxing on the hot path of TopoOrder).
type idHeap struct{ a []NodeID }

func (h *idHeap) len() int { return len(h.a) }

func (h *idHeap) push(v NodeID) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *idHeap) pop() NodeID {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
