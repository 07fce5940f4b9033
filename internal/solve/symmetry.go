package solve

import (
	"math/bits"

	"rbpebble/internal/canon"
	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// symmetry maps search states to representatives of their orbits under
// the DAG's automorphism group. The pebbling models ignore node labels,
// and automorphisms carry sources to sources and sinks to sinks, so
// every member of an orbit has the same cost-to-go and serial A* stores
// one representative per orbit it meets.
//
// States are compared node by node in increasing order, each node by
// its code (computed, red, blue). The stabilizer chain has every moved
// node as a base point, in increasing order, so level i's elements fix
// every node below its base point b_i. The representative is a greedy
// minimum image: the group is V_k∘...∘V_1, V_i holding the inverses of
// level i's transversal, and level by level the first element giving
// the smallest image (the identity first) is applied. An image differs
// from the state only on the nodes its element moves, so a level's scan
// reads a candidate's code at b_i off the state, compares one tying the
// identity there on its moved nodes up to the first difference, and
// builds images only on a tie of two elements (rare) and for the
// winner. The result is a member of the state's orbit (not always its
// minimum, which only costs merges) and a deterministic function of the
// state, so reconstruct can re-derive every step.
type symmetry struct {
	w        int        // words per bitset; a packed key has 3w
	levels   []symLevel // the chain's levels with more than one element
	img, alt []uint64   // scratch images of the best element and a tied one
	choice   []int      // per level, the element applied (-1: identity)

	// back maps searched (canonical) node IDs to the caller's; state is
	// scratch on the searched DAG, where reconstruct replays moves.
	back  []dag.NodeID
	state *pebble.State
}

// symLevel is one chain level: its base point and transversal elements.
type symLevel struct {
	base  int
	elems []symElem
}

// symElem is one non-identity transversal element u, mapping states by
// u's inverse: node x of an image holds what node u(x) holds in the
// state. moved lists the pairs (x, u(x)) over the nodes u moves: first,
// in increasing x, the cmp pairs whose x is not its cycle's largest
// node, starting at (b, u(b)) for the level's base point b; then the
// rest, on which a state agreeing with its image on the first part
// agrees too (its codes are constant on every cycle).
type symElem struct {
	u     canon.Perm
	moved []symPair
	cmp   int
}

type symPair struct{ x, ux int32 }

// newSymmetry returns the symmetry of the automorphism group gr for
// packed keys of kw words, or nil when the group is trivial (a search
// without symmetry pays nothing per state).
func newSymmetry(gr *canon.Group, kw int) *symmetry {
	if gr.Trivial() {
		return nil
	}
	s := &symmetry{w: kw / 3}
	for i := 0; i < gr.Levels(); i++ {
		l := symLevel{base: int(gr.Base()[i])}
		for _, u := range gr.Transversal(i)[1:] {
			l.elems = append(l.elems, newSymElem(u))
		}
		s.levels = append(s.levels, l)
	}
	s.img, s.alt, s.choice = make([]uint64, 3*s.w), make([]uint64, 3*s.w), make([]int, len(s.levels))
	return s
}

// newSymElem lists u's moved pairs in the order symElem keeps them.
func newSymElem(u canon.Perm) symElem {
	e := symElem{u: u}
	var tops []symPair
	for x, ux := range u {
		top := true // x is the largest node of its cycle
		for y := int(ux); y != x && top; y = int(u[y]) {
			top = y < x
		}
		if p := (symPair{int32(x), int32(ux)}); int(ux) != x && top {
			tops = append(tops, p)
		} else if int(ux) != x {
			e.moved = append(e.moved, p)
		}
	}
	e.cmp = len(e.moved)
	e.moved = append(e.moved, tops...)
	return e
}

// canonize replaces key with its representative, recording in choice
// the element applied at each level.
func (s *symmetry) canonize(key pebble.PackedKey) {
	for li := range s.levels {
		l := &s.levels[li]
		best, bestCode, built := -1, s.code(key, l.base), false // built: s.img is best's image
		for ei := range l.elems {
			e := &l.elems[ei]
			c := s.code(key, int(e.moved[0].ux))
			switch {
			case c > bestCode, c == bestCode && best < 0 && !s.beatsKey(e, key):
				continue
			case c == bestCode && best >= 0:
				if !built {
					s.image(s.img, &l.elems[best], key)
				}
				s.image(s.alt, e, key)
				if built = true; !s.less(s.alt, s.img) {
					continue
				}
				s.img, s.alt = s.alt, s.img
			}
			best, bestCode, built = ei, c, c == bestCode && best >= 0
		}
		if s.choice[li] = best; best >= 0 {
			if !built {
				s.image(s.img, &l.elems[best], key)
			}
			copy(key, s.img)
		}
	}
}

// beatsKey reports whether e's image of key, tying key at the base point,
// is smaller at the first node after it where they differ.
func (s *symmetry) beatsKey(e *symElem, key []uint64) bool {
	if s.w == 1 {
		r, b, c := key[0], key[1], key[2]
		for _, p := range e.moved[1:e.cmp] {
			if x, ux := uint(p.x&63), uint(p.ux&63); ((r>>x^r>>ux)|(b>>x^b>>ux)|(c>>x^c>>ux))&1 != 0 {
				return c>>ux&1<<2|r>>ux&1<<1|b>>ux&1 < c>>x&1<<2|r>>x&1<<1|b>>x&1
			}
		}
		return false
	}
	for _, p := range e.moved[1:e.cmp] {
		if a, b := s.code(key, int(p.ux)), s.code(key, int(p.x)); a != b {
			return a < b
		}
	}
	return false
}

// code returns node v's code in key: computed, red, blue, high to low.
func (s *symmetry) code(key []uint64, v int) int {
	k, bit := v>>6, uint(v&63)
	return int(key[2*s.w+k]>>bit&1)<<2 | int(key[k]>>bit&1)<<1 | int(key[s.w+k]>>bit&1)
}

// less reports whether packed key a is smaller than b: at the lowest
// node where they differ, a's code is smaller.
func (s *symmetry) less(a, b []uint64) bool {
	for w, k := s.w, 0; k < w; k++ {
		if x := (a[k] ^ b[k]) | (a[w+k] ^ b[w+k]) | (a[2*w+k] ^ b[2*w+k]); x != 0 {
			v := k<<6 + bits.TrailingZeros64(x)
			return s.code(a, v) < s.code(b, v)
		}
	}
	return false
}

// image writes e's image of key into dst: key with node x of each moved
// pair set to what node u(x) holds in key, in registers for one word.
func (s *symmetry) image(dst []uint64, e *symElem, key []uint64) {
	if s.w == 1 {
		red, blue, comp, r, b, c := key[0], key[1], key[2], key[0], key[1], key[2]
		for _, p := range e.moved {
			x, ux := uint(p.x&63), uint(p.ux&63)
			r, b, c = r&^(1<<x)|(red>>ux&1)<<x, b&^(1<<x)|(blue>>ux&1)<<x, c&^(1<<x)|(comp>>ux&1)<<x
		}
		dst[0], dst[1], dst[2] = r, b, c
		return
	}
	copy(dst, key)
	for _, p := range e.moved {
		xk, xb, uk, ub := int(p.x>>6), uint(p.x&63), int(p.ux>>6), uint(p.ux&63)
		for seg := 0; seg < 3*s.w; seg += s.w {
			dst[seg+xk] = dst[seg+xk]&^(1<<xb) | (key[seg+uk]>>ub&1)<<xb
		}
	}
}

// compose sets tau to tau∘σ^-1, where σ is the map the last canonize
// applied: σ = v_k∘...∘v_1 with v_i = u_i^-1, so σ^-1 = u_1∘...∘u_k.
func (s *symmetry) compose(tau []dag.NodeID, scratch []dag.NodeID) {
	for li, ei := range s.choice {
		if ei < 0 {
			continue
		}
		u := s.levels[li].elems[ei].u
		for x := range scratch {
			scratch[x] = tau[u[x]]
		}
		copy(tau, scratch)
	}
}
