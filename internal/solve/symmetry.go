package solve

import (
	"math/bits"

	"rbpebble/internal/canon"
	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// symTableBytes caps the byte tables of a symmetry. A group whose
// tables would outgrow it is not used: its elements cost more to try
// per state than the search can win back.
const symTableBytes = 32 << 20

// symmetry maps search states to representatives of their orbits under
// the DAG's automorphism group. The pebbling models ignore node labels,
// and automorphisms carry sources to sources and sinks to sinks, so
// every member of an orbit has the same cost-to-go and serial A* stores
// one representative per orbit it meets.
//
// States are compared node by node in increasing node order, each node
// by its code (computed, red, blue). The group's stabilizer chain has
// every moved node as a base point, in increasing order, so level i's
// elements fix every node below its base point b_i. The representative
// is a greedy minimum image: the group is V_k∘...∘V_1, where V_i holds
// the inverses of level i's transversal, and level by level the element
// giving the smallest whole image is applied. An element's image first
// differs from the others' at b_i, whose code it reads off the state,
// so most losing elements cost one lookup. The result is some member of
// the state's orbit (not always its minimum, which only costs merges),
// and it is a deterministic function of the state, so reconstruct can
// re-derive every step.
type symmetry struct {
	w      int        // words per bitset; a packed key has 3w
	nb     int        // bytes per bitset that can hold a node
	levels []symLevel // the chain's levels with more than one element
	cand   []uint64   // scratch image of one element
	best   []uint64   // scratch image of the level's best element
	choice []int      // per level, the element applied (-1: identity)

	// back maps the searched (canonical) node IDs to the caller's, and
	// state is scratch on the searched DAG, where reconstruct replays
	// the stored moves.
	back  []dag.NodeID
	state *pebble.State
}

// symLevel is one chain level: its base point and its non-identity
// transversal elements.
type symLevel struct {
	base  int
	elems []symElem
}

// symElem is one non-identity transversal element u. States are mapped
// by u's inverse, which carries the code of node u(base) to base, and
// is applied through byte tables: tab[(j<<8|b)*w+k] is word k of the
// image of byte value b at byte position j of a bitset.
type symElem struct {
	u    canon.Perm
	from int // u(base)
	tab  []uint64
}

// newSymmetry returns the symmetry of g's automorphism group for
// packed keys of kw words, or nil when the group is trivial (or too
// large to table), so a search without symmetry pays nothing per state.
// It polls stop after the group search and between the tables it builds,
// and returns nil once stop reports true.
func newSymmetry(g *dag.DAG, kw int, stop func() bool) *symmetry {
	gr := canon.Automorphisms(g)
	if gr.Trivial() || stop() {
		return nil
	}
	s := &symmetry{w: kw / 3, nb: (g.N() + 7) / 8}
	elems := 0
	for i := 0; i < gr.Levels(); i++ {
		elems += len(gr.Transversal(i)) - 1
	}
	if elems*s.nb*256*s.w*8 > symTableBytes {
		return nil
	}
	for i := 0; i < gr.Levels(); i++ {
		l := symLevel{base: int(gr.Base()[i])}
		for _, u := range gr.Transversal(i)[1:] {
			if stop() {
				return nil
			}
			l.elems = append(l.elems, symElem{u: u, from: int(u[l.base]), tab: s.table(u)})
		}
		s.levels = append(s.levels, l)
	}
	s.cand = make([]uint64, 3*s.w)
	s.best = make([]uint64, 3*s.w)
	s.choice = make([]int, len(s.levels))
	return s
}

// table builds the byte tables that apply u's inverse to a bitset.
func (s *symmetry) table(u canon.Perm) []uint64 {
	inv := make([]int, len(u))
	for v, w := range u {
		inv[w] = v
	}
	tab := make([]uint64, s.nb*256*s.w)
	for j := 0; j < s.nb; j++ {
		for b := 1; b < 256; b++ {
			row := tab[(j<<8|b)*s.w:][:s.w]
			low := b & -b
			copy(row, tab[(j<<8|(b^low))*s.w:][:s.w])
			if v := 8*j + bits.TrailingZeros(uint(low)); v < len(inv) {
				row[inv[v]>>6] |= 1 << (inv[v] & 63)
			}
		}
	}
	return tab
}

// canonize replaces key with its representative and records in choice
// the element applied at each level.
func (s *symmetry) canonize(key pebble.PackedKey) {
	for li := range s.levels {
		l := &s.levels[li]
		s.choice[li] = -1
		cur := []uint64(key)
		bestCode := s.code(key, l.base)
		for ei := range l.elems {
			e := &l.elems[ei]
			c := s.code(key, e.from)
			if c > bestCode {
				continue
			}
			s.image(e, key)
			if c == bestCode && !s.less(s.cand, cur) {
				continue
			}
			s.choice[li], bestCode = ei, c
			s.cand, s.best = s.best, s.cand
			cur = s.best
		}
		if s.choice[li] >= 0 {
			copy(key, s.best)
		}
	}
}

// code returns node v's code in key: computed, red, blue, high to low.
func (s *symmetry) code(key []uint64, v int) int {
	k, bit := v>>6, uint(v&63)
	return int(key[2*s.w+k]>>bit&1)<<2 | int(key[k]>>bit&1)<<1 | int(key[s.w+k]>>bit&1)
}

// less reports whether packed key a is smaller than b: at the lowest
// node where they differ, a's code is smaller.
func (s *symmetry) less(a, b []uint64) bool {
	w := s.w
	for k := 0; k < w; k++ {
		if x := (a[k] ^ b[k]) | (a[w+k] ^ b[w+k]) | (a[2*w+k] ^ b[2*w+k]); x != 0 {
			v := k<<6 + bits.TrailingZeros64(x)
			return s.code(a, v) < s.code(b, v)
		}
	}
	return false
}

// image writes e's image of key into cand.
func (s *symmetry) image(e *symElem, key []uint64) {
	w := s.w
	for seg := 0; seg < 3; seg++ {
		in, out := key[seg*w:(seg+1)*w], s.cand[seg*w:(seg+1)*w]
		clear(out)
		if w == 1 {
			x := in[0]
			for j := 0; x != 0; j++ {
				if b := x & 0xff; b != 0 {
					out[0] |= e.tab[j<<8|int(b)]
				}
				x >>= 8
			}
			continue
		}
		for j := 0; j < s.nb; j++ {
			b := in[j>>3] >> (8 * (j & 7)) & 0xff
			if b == 0 {
				continue
			}
			row := e.tab[(j<<8|int(b))*w:][:w]
			for k, r := range row {
				out[k] |= r
			}
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
