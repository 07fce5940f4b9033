package canon

import (
	"math/big"

	"rbpebble/internal/dag"
)

// Perm is a permutation of a graph's nodes: Perm[v] is the image of v.
type Perm []dag.NodeID

// maxTransversal caps the number of transversal elements a stabilizer
// chain may hold (the sum of its basic orbit lengths). A group whose
// chain outgrows it is returned as the trivial group: its elements
// would cost more to try per state than a search can win back.
const maxTransversal = 4096

// Group is a group of graph automorphisms held as a stabilizer chain:
// a base b_1..b_k and, at each level i, a transversal U_i of the
// pointwise stabilizer of b_1..b_{i-1} over the orbit of b_i. Every
// element of the group is a product u_1∘u_2∘...∘u_k with u_i in U_i,
// in exactly one way. The chain is built by deterministic
// Schreier-Sims over the generators the labeling search found, so it
// depends only on the input graph.
type Group struct {
	base   []dag.NodeID
	levels [][]Perm // levels[i][0] is the identity
}

// Trivial reports whether the group holds only the identity.
func (gr *Group) Trivial() bool { return len(gr.levels) == 0 }

// Levels returns the length of the chain's base.
func (gr *Group) Levels() int { return len(gr.levels) }

// Base returns the chain's base points.
func (gr *Group) Base() []dag.NodeID { return gr.base }

// Transversal returns level i's transversal: element j maps the base
// point b_i to the j-th point of its basic orbit, and element 0 is the
// identity. The slice is shared; callers must not modify it.
func (gr *Group) Transversal(i int) []Perm { return gr.levels[i] }

// Order returns the number of elements of the group: the product of
// the basic orbit lengths.
func (gr *Group) Order() *big.Int {
	o := big.NewInt(1)
	for _, u := range gr.levels {
		o.Mul(o, big.NewInt(int64(len(u))))
	}
	return o
}

// chainLevel is one level of a chain under construction.
type chainLevel struct {
	base  dag.NodeID
	gens  []Perm
	orbit []dag.NodeID
	trans []Perm // trans[p] maps base to p; nil off the orbit
}

type chain struct {
	n      int
	levels []*chainLevel
	size   int // transversal elements beyond the identities, summed over levels
}

// newGroup builds the stabilizer chain of the group generated by gens.
// The base is every point some generator moves, in increasing order,
// so a chain's levels run in node order; levels whose basic orbit is
// a single point are dropped at the end.
func newGroup(n int, gens []Perm) *Group {
	c := &chain{n: n}
	moved := make([]bool, n)
	for _, g := range gens {
		for v, w := range g {
			moved[v] = moved[v] || w != dag.NodeID(v)
		}
	}
	id := Perm(identity(n))
	bases := make([]dag.NodeID, 0, n)
	for b, m := range moved {
		if m {
			bases = append(bases, dag.NodeID(b))
		}
	}
	// One slab each for the levels, their transversal tables and their
	// orbits: a level's orbit never outgrows the n points.
	levels := make([]chainLevel, len(bases))
	c.levels = make([]*chainLevel, len(bases))
	trans := make([]Perm, len(bases)*n)
	orbits := make([]dag.NodeID, len(bases)*n)
	for i, b := range bases {
		l := &levels[i]
		l.base = b
		l.trans = trans[i*n : (i+1)*n : (i+1)*n]
		l.orbit = append(orbits[i*n:i*n:(i+1)*n], b)
		l.trans[b] = id
		c.levels[i] = l
	}
	for _, g := range gens {
		if r, j := c.sift(g, 0); !isIdentity(r) {
			c.add(r, 0, j)
		}
		if c.size > maxTransversal {
			return &Group{}
		}
	}
	gr := &Group{}
	for _, l := range c.levels {
		if len(l.orbit) == 1 {
			continue
		}
		gr.base = append(gr.base, l.base)
		u := make([]Perm, 0, len(l.orbit))
		for _, p := range l.orbit {
			u = append(u, l.trans[p])
		}
		gr.levels = append(gr.levels, u)
	}
	return gr
}

// sift strips g through the chain from level i: at each level it
// divides out the transversal element that matches g's image of the
// base point. It returns the residue and the level where it stopped
// (len(levels) when g sifted through every level; the residue is then
// the identity, as the base holds every moved point).
func (c *chain) sift(g Perm, i int) (Perm, int) {
	for ; i < len(c.levels); i++ {
		l := c.levels[i]
		if g[l.base] == l.base {
			continue
		}
		u := l.trans[g[l.base]]
		if u == nil {
			return g, i
		}
		g = compose(inverse(u), g)
	}
	return g, i
}

// add makes g, which fixes the base points of levels 0..to-1 but does
// not sift through level to, a strong generator of levels from..to
// (a level's generators are all those that fix the earlier base
// points). It works from the deepest level up, so every level a
// Schreier generator is sifted into is already complete.
func (c *chain) add(g Perm, from, to int) {
	for i := to; i >= from; i-- {
		c.extend(g, i)
	}
}

// extend adds g to level i's generators, extends the level's orbit and
// sifts every new Schreier generator into the deeper levels, so that on
// return levels i.. hold a complete chain for the group their
// generators generate.
func (c *chain) extend(g Perm, i int) {
	if c.size > maxTransversal {
		return
	}
	l := c.levels[i]
	oldGens, oldOrbit := len(l.gens), len(l.orbit)
	l.gens = append(l.gens, g)
	for k := 0; k < len(l.orbit); k++ {
		p := l.orbit[k]
		for _, s := range l.gens {
			if q := s[p]; l.trans[q] == nil {
				l.trans[q] = compose(s, l.trans[p])
				l.orbit = append(l.orbit, q)
				c.size++
			}
		}
	}
	// Schreier generators u_{s(p)}^-1 ∘ s ∘ u_p for every pair (p, s)
	// not checked by an earlier call.
	for k := 0; k < len(l.orbit); k++ {
		p := l.orbit[k]
		for si, s := range l.gens {
			if c.size > maxTransversal {
				return
			}
			if k < oldOrbit && si < oldGens {
				continue
			}
			h := compose(inverse(l.trans[s[p]]), compose(s, l.trans[p]))
			if r, j := c.sift(h, i+1); !isIdentity(r) {
				c.add(r, i+1, j)
			}
		}
	}
}

// compose returns a∘b: v ↦ a[b[v]].
func compose(a, b Perm) Perm {
	out := make(Perm, len(a))
	for v, w := range b {
		out[v] = a[w]
	}
	return out
}

func inverse(a Perm) Perm {
	out := make(Perm, len(a))
	for v, w := range a {
		out[w] = dag.NodeID(v)
	}
	return out
}

func isIdentity(a Perm) bool {
	for v, w := range a {
		if w != dag.NodeID(v) {
			return false
		}
	}
	return true
}
