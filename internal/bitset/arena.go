package bitset

// Arena carves many same-capacity sets out of shared backing slabs:
// one allocation per chunk of headers and one per chunk of words,
// instead of two per set. Solver precomputes build hundreds of small
// masks (reachability closures) that live for the whole search;
// slab-backing them removes both the allocation churn at build time
// and the per-object GC scan pressure afterwards. Sets handed out by
// an Arena behave exactly like New'd sets and stay valid for the
// Arena's lifetime (slabs are never reclaimed while any set references
// them).
type Arena struct {
	n   int // capacity of every set
	wpn int // words per set

	sets  []Set
	words []uint64
}

// arenaChunk is the number of sets carved per slab allocation.
const arenaChunk = 64

// NewArena returns an arena producing sets of capacity n.
func NewArena(n int) *Arena {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Arena{n: n, wpn: (n + 63) / 64}
}

// New returns an empty set of the arena's capacity.
func (a *Arena) New() *Set {
	if len(a.sets) == 0 {
		a.sets = make([]Set, arenaChunk)
	}
	if len(a.words) < a.wpn {
		a.words = make([]uint64, a.wpn*arenaChunk)
	}
	s := &a.sets[0]
	a.sets = a.sets[1:]
	*s = Set{words: a.words[:a.wpn:a.wpn], n: a.n}
	a.words = a.words[a.wpn:]
	return s
}
