// Package canon computes, with one individualize-and-refine search per
// DAG, its canonical labeling and its automorphism group.
//
// The canonical key is computed by color refinement (1-WL) over the
// DAG followed by bounded individualize-and-refine tie-breaking: within
// the search budget the resulting labeling is isomorphism-invariant, so
// relabeled copies of a graph share a key. Graphs above maxN nodes skip
// the search and key on their exact representation instead (bounding
// key cost on the serving request path). Correctness never depends on
// either budget: the key always hashes the exact adjacency structure
// under the chosen labeling, so two graphs with equal keys are
// genuinely isomorphic (up to SHA-256 collisions) — a budget exhaustion
// can only cost cache hits, never poison a cache.
//
// The same search yields automorphisms: two leaves that serialize
// identically differ by one. Every automorphism found is checked edge
// by edge, prunes the sibling branches it maps onto explored ones, and
// becomes a generator of the group Labeling.Group builds on request
// (a cache key needs none) as a stabilizer chain.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"

	"rbpebble/internal/dag"
)

// maxN bounds the graph size that gets full canonical labeling.
// Beyond it Search degrades to the representation-exact key (the
// identity labeling) and the trivial group: isomorphic relabelings of
// huge graphs stop sharing cache lines, but identical representations
// — the common retry/duplicate case — still do, and the key stays
// O(n + m) instead of the superlinear refinement search a request-path
// attacker could lean on. Within the bound, refinement runs to full
// stabilization (at most n rounds), so path-like graphs become discrete
// without any individualization.
const maxN = 512

// searchBudget caps the number of individualization branches explored
// while breaking refinement ties. Within budget the labeling is
// isomorphism-invariant and the automorphisms found generate the whole
// group; beyond it the first cell member is taken, which is
// deterministic for a given input but labeling-dependent, and the
// group found may be a proper subgroup.
const searchBudget = 128

// Labeling is what one search finds out about a DAG g. Labels are
// ignored: they do not affect pebbling cost.
type Labeling struct {
	// Digest identifies g up to isomorphism (within the size and search
	// budgets; see the package comment).
	Digest [sha256.Size]byte
	// Perm is the canonical labeling: Perm[orig] = canonical ID.
	Perm []dag.NodeID
	// Canonical reports whether g is already in canonical numbering:
	// its identity serialization equals the canonical one, that is,
	// Perm is an automorphism and relabeling g by it gives g back.
	Canonical bool
	gens      []Perm // the automorphisms found, in g's numbering
}

// Search runs the labeling search of g.
func Search(g *dag.DAG) Labeling {
	n := g.N()
	if n == 0 {
		return Labeling{Digest: sha256.Sum256(nil), Canonical: true}
	}
	if n > maxN {
		perm := identity(n)
		return Labeling{Digest: sha256.Sum256(serialize(g, perm)), Perm: perm, Canonical: true}
	}
	s := search(g)
	return Labeling{Digest: sha256.Sum256(s.bestSer), Perm: s.bestPerm,
		Canonical: isAutomorphism(g, s.bestPerm), gens: s.gens}
}

// Symmetric reports whether the search found an automorphism other
// than the identity. When it is false, Group is the trivial group.
func (l Labeling) Symmetric() bool { return len(l.gens) > 0 }

// Group builds g's automorphism group, in g's own numbering, as a
// stabilizer chain. When the search ran out of budget the chain holds
// the subgroup generated by the automorphisms it found. Above maxN
// nodes, and for a group whose chain would hold more than
// maxTransversal elements, it is the trivial group.
func (l Labeling) Group() *Group { return newGroup(len(l.Perm), l.gens) }

// searcher is one individualize-and-refine search. Leaves are visited
// in depth-first order; the canonical leaf is the first one with the
// smallest serialization, exactly as a search without pruning would
// pick it, because every branch the search skips is the image of an
// explored one under an automorphism and holds no serialization that
// was not seen before it.
type searcher struct {
	g      *dag.DAG
	n      int
	r      *refiner
	budget int
	path   []dag.NodeID // individualized vertices, root to current node

	// The first leaf and the best (smallest) leaf so far, with the
	// paths that reached them.
	firstSer, bestSer   []byte
	firstPerm, bestPerm []dag.NodeID
	firstPath, bestPath []dag.NodeID

	gens []Perm // automorphisms found, each checked edge by edge
	// jump >= 0 unwinds the search to the tree node at that depth: the
	// subtree below it is the image of an explored one.
	jump int
}

func search(g *dag.DAG) *searcher {
	s := &searcher{g: g, n: g.N(), r: newRefiner(g), budget: searchBudget, jump: -1}
	s.visit(s.r.refine(make([]int32, s.n)))
	return s
}

// visit expands the tree node whose refined coloring is colors: pick
// the smallest-color cell with >= 2 members and individualize each
// member in turn (budget permitting), skipping members that an
// automorphism fixing the current path maps onto an explored sibling.
// Trying every orbit of an invariantly-chosen cell is what makes the
// result independent of the input labeling.
func (s *searcher) visit(colors []int32) {
	cell := s.r.targetCell(colors)
	if cell == nil {
		s.leaf(colors)
		return
	}
	depth := len(s.path)
	var explored []dag.NodeID
	var orb orbits
	for i, v := range cell {
		if i > 0 && s.budget <= 0 {
			break // budget gone: keep only the first branch
		}
		if i > 0 && orb.sameOrbit(s, v, explored) {
			continue
		}
		s.budget--
		branch := make([]int32, s.n)
		copy(branch, colors)
		branch[v] = int32(s.n) // fresh marker color, re-densified by refine
		s.path = append(s.path, v)
		s.visit(s.r.refine(branch))
		s.path = s.path[:depth]
		explored = append(explored, v)
		if s.jump >= 0 {
			if s.jump < depth {
				return
			}
			s.jump = -1
		}
	}
}

// leaf handles a discrete coloring: it becomes the best leaf when it
// serializes smaller, and yields an automorphism when it serializes the
// same as the first or the best leaf.
func (s *searcher) leaf(colors []int32) {
	perm := make([]dag.NodeID, s.n)
	for v, c := range colors {
		perm[v] = dag.NodeID(c)
	}
	ser := serialize(s.g, perm)
	path := append([]dag.NodeID(nil), s.path...)
	switch {
	case s.bestSer == nil:
		s.firstSer, s.firstPerm, s.firstPath = ser, perm, path
		s.bestSer, s.bestPerm, s.bestPath = ser, perm, path
	case bytes.Compare(ser, s.bestSer) < 0:
		s.bestSer, s.bestPerm, s.bestPath = ser, perm, path
	case bytes.Equal(ser, s.firstSer):
		s.automorphism(s.firstPerm, s.firstPath, perm)
	case bytes.Equal(ser, s.bestSer):
		s.automorphism(s.bestPerm, s.bestPath, perm)
	}
}

// automorphism records the map that carries the current leaf's
// labeling perm onto an earlier leaf's labeling ref (reached by refPath)
// and, when that map carries the current path onto refPath, unwinds the
// search to the depth where the two paths diverge.
func (s *searcher) automorphism(ref []dag.NodeID, refPath, perm []dag.NodeID) {
	inv := make([]dag.NodeID, s.n)
	for v, c := range ref {
		inv[c] = dag.NodeID(v)
	}
	gamma := make(Perm, s.n)
	moved := false
	for v, c := range perm {
		gamma[v] = inv[c]
		moved = moved || gamma[v] != dag.NodeID(v)
	}
	if !moved || !isAutomorphism(s.g, gamma) {
		return
	}
	s.gens = append(s.gens, gamma)
	d := 0
	for d < len(s.path) && d < len(refPath) && s.path[d] == refPath[d] {
		d++
	}
	if d == len(s.path) || d == len(refPath) {
		return
	}
	for i := 0; i <= d; i++ {
		if gamma[s.path[i]] != refPath[i] {
			return
		}
	}
	s.jump = d
}

// orbits is the orbit partition, under the automorphisms found so far
// that fix every vertex of the current path, that a tree node uses to
// skip equivalent children. It is recomputed when new automorphisms
// arrive.
type orbits struct {
	parent []int32
	ngens  int
}

// sameOrbit reports whether v shares an orbit with an explored sibling.
func (o *orbits) sameOrbit(s *searcher, v dag.NodeID, explored []dag.NodeID) bool {
	if len(s.gens) == 0 {
		return false
	}
	if o.parent == nil || o.ngens != len(s.gens) {
		o.build(s)
	}
	r := o.find(int32(v))
	for _, w := range explored {
		if o.find(int32(w)) == r {
			return true
		}
	}
	return false
}

func (o *orbits) build(s *searcher) {
	if o.parent == nil {
		o.parent = make([]int32, s.n)
	}
	for i := range o.parent {
		o.parent[i] = int32(i)
	}
	o.ngens = len(s.gens)
next:
	for _, g := range s.gens {
		for _, v := range s.path {
			if g[v] != v {
				continue next
			}
		}
		for v, w := range g {
			a, b := o.find(int32(v)), o.find(int32(w))
			if a != b {
				o.parent[max(a, b)] = min(a, b)
			}
		}
	}
}

func (o *orbits) find(v int32) int32 {
	for o.parent[v] != v {
		o.parent[v] = o.parent[o.parent[v]]
		v = o.parent[v]
	}
	return v
}

// isAutomorphism checks gamma edge by edge: it must be a permutation
// that carries every edge of g onto an edge of g (so, edges being
// finite, onto the edge set exactly).
func isAutomorphism(g *dag.DAG, gamma Perm) bool {
	seen := make([]bool, len(gamma))
	for _, w := range gamma {
		if w < 0 || int(w) >= len(gamma) || seen[w] {
			return false
		}
		seen[w] = true
	}
	for u := range gamma {
		for _, v := range g.Succs(dag.NodeID(u)) {
			if !g.HasEdge(gamma[u], gamma[v]) {
				return false
			}
		}
	}
	return true
}

// sep separates a node's predecessor and successor colors in its
// refinement signature. It compares above every color, which orders
// signatures exactly as their big-endian byte encodings with a 0xff
// separator byte would.
const sep = math.MaxInt32

// refiner holds the scratch of color refinement, reused across the
// rounds and the calls of one search.
type refiner struct {
	g     *dag.DAG
	tok   []int32 // every node's signature, back to back
	off   []int32 // node v's signature is tok[off[v]:off[v+1]]
	order []int32
	count []int32 // per color, sized for the fresh marker color n
}

func newRefiner(g *dag.DAG) *refiner {
	n := g.N()
	return &refiner{
		g:     g,
		tok:   make([]int32, 0, 2*n+2*g.M()),
		off:   make([]int32, n+1),
		order: make([]int32, n),
		count: make([]int32, n+1),
	}
}

// refine runs color refinement to a stable partition: each round
// recolors every node by the signature (own color, sorted pred colors,
// separator, sorted succ colors), with new color IDs assigned by the
// lexicographic order of the signatures so the result is independent of
// node numbering. The class count grows strictly until stable, so at
// most n rounds run (and the search caps n at maxN).
func (r *refiner) refine(colors []int32) []int32 {
	g, n := r.g, r.g.N()
	classes := r.classes(colors)
	for iter := 0; iter < n; iter++ {
		r.tok = r.tok[:0]
		for v := 0; v < n; v++ {
			r.off[v] = int32(len(r.tok))
			r.tok = append(r.tok, colors[v])
			r.tok = appendSortedColors(r.tok, colors, g.Preds(dag.NodeID(v)))
			r.tok = append(r.tok, sep)
			r.tok = appendSortedColors(r.tok, colors, g.Succs(dag.NodeID(v)))
			r.order[v] = int32(v)
		}
		r.off[n] = int32(len(r.tok))
		slices.SortFunc(r.order, func(a, b int32) int { return slices.Compare(r.sig(a), r.sig(b)) })
		uniq := int32(0)
		for i, v := range r.order {
			if i > 0 && !slices.Equal(r.sig(r.order[i-1]), r.sig(v)) {
				uniq++
			}
			colors[v] = uniq
		}
		if int(uniq)+1 == classes || int(uniq)+1 == n {
			break // stable (or discrete)
		}
		classes = int(uniq) + 1
	}
	return colors
}

func (r *refiner) sig(v int32) []int32 { return r.tok[r.off[v]:r.off[v+1]] }

// classes counts the distinct colors.
func (r *refiner) classes(colors []int32) int {
	clear(r.count)
	k := 0
	for _, c := range colors {
		if r.count[c] == 0 {
			k++
		}
		r.count[c]++
	}
	return k
}

func appendSortedColors(tok []int32, colors []int32, nodes []dag.NodeID) []int32 {
	start := len(tok)
	for _, u := range nodes {
		tok = append(tok, colors[u])
	}
	slices.Sort(tok[start:])
	return tok
}

// targetCell returns the members of the smallest color value that still
// holds >= 2 nodes (nil when the coloring is discrete). Cells are
// identified by color value, which is labeling-invariant.
func (r *refiner) targetCell(colors []int32) []dag.NodeID {
	r.classes(colors)
	best := slices.IndexFunc(r.count, func(k int32) bool { return k >= 2 })
	if best < 0 {
		return nil
	}
	cell := make([]dag.NodeID, 0, r.count[best])
	for v, c := range colors {
		if c == int32(best) {
			cell = append(cell, dag.NodeID(v))
		}
	}
	return cell
}

// serialize emits the adjacency structure under a discrete labeling:
// node count, then for each canonical node its sorted canonical
// predecessor list. The output determines the graph up to isomorphism.
func serialize(g *dag.DAG, perm []dag.NodeID) []byte {
	n := g.N()
	inv := make([]dag.NodeID, n)
	for v, c := range perm {
		inv[c] = dag.NodeID(v)
	}
	buf := make([]byte, 0, 4*(1+n+g.M()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	preds := make([]int32, 0, g.MaxInDegree())
	for c := 0; c < n; c++ {
		v := inv[c]
		preds = preds[:0]
		for _, u := range g.Preds(v) {
			preds = append(preds, int32(perm[u]))
		}
		slices.Sort(preds)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(preds)))
		for _, u := range preds {
			buf = binary.BigEndian.AppendUint32(buf, uint32(u))
		}
	}
	return buf
}

func identity(n int) []dag.NodeID {
	p := make([]dag.NodeID, n)
	for v := range p {
		p[v] = dag.NodeID(v)
	}
	return p
}
