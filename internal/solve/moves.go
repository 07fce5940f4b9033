package solve

import (
	"math/bits"

	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// nodeMasks holds a DAG's static node sets in the layout of one third
// of a packed key (w 64-bit words, node v at bit v&63 of word v>>6):
// the sinks, the sources, the nodes no Compute may place a pebble on
// (the sources under SourcesStartBlue), and per node its predecessor
// and successor masks. The move generator and the lower bound share one
// instance, built whether the heuristic is on or off.
type nodeMasks struct {
	g *dag.DAG
	w int // words per node set; a packed key holds three

	sinks, sources, uncomputable []uint64
	// preds and succs hold node v's predecessor and successor masks at
	// words [v*w, (v+1)*w), on graphs of at most capMaxN nodes; larger
	// graphs read the adjacency lists instead (see orPreds), which
	// keeps the set-up linear.
	preds, succs []uint64
}

func newNodeMasks(p Problem) *nodeMasks {
	g := p.G
	n := g.N()
	w := (n + 63) / 64
	words := 3 * w
	if n <= capMaxN {
		words += 2 * n * w
	}
	slab := make([]uint64, words)
	carve := func(k int) []uint64 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	m := &nodeMasks{g: g, w: w}
	m.sinks, m.sources, m.uncomputable = carve(w), carve(w), carve(w)
	if n <= capMaxN {
		m.preds, m.succs = carve(n*w), carve(n*w)
	}
	for v := 0; v < n; v++ {
		id := dag.NodeID(v)
		if g.IsSink(id) {
			setBit(m.sinks, id)
		}
		if g.IsSource(id) {
			setBit(m.sources, id)
			if p.Convention.SourcesStartBlue {
				setBit(m.uncomputable, id)
			}
		}
		if m.preds != nil {
			for _, u := range g.Preds(id) {
				setBit(m.preds[v*w:], u)
				setBit(m.succs[int(u)*w:], id)
			}
		}
	}
	return m
}

// orPreds ORs node v's predecessor set into dst.
func (m *nodeMasks) orPreds(dst []uint64, v dag.NodeID) {
	if m.preds == nil {
		for _, u := range m.g.Preds(v) {
			setBit(dst, u)
		}
		return
	}
	orMask(dst, m.preds, m.w, v)
}

// orSuccs ORs node v's successor set into dst.
func (m *nodeMasks) orSuccs(dst []uint64, v dag.NodeID) {
	if m.succs == nil {
		for _, x := range m.g.Succs(v) {
			setBit(dst, x)
		}
		return
	}
	orMask(dst, m.succs, m.w, v)
}

// orMask ORs node v's mask in the per-node table masks into dst.
func orMask(dst, masks []uint64, w int, v dag.NodeID) {
	if w == 1 {
		dst[0] |= masks[v]
		return
	}
	for i, x := range masks[int(v)*w : (int(v)+1)*w] {
		dst[i] |= x
	}
}

// predsIn reports whether every predecessor of v is in a ∪ b.
func (m *nodeMasks) predsIn(v dag.NodeID, a, b []uint64) bool {
	if m.preds == nil {
		for _, u := range m.g.Preds(v) {
			if !hasBit(a, u) && !hasBit(b, u) {
				return false
			}
		}
		return true
	}
	if m.w == 1 {
		return m.preds[v]&^(a[0]|b[0]) == 0
	}
	for i, x := range m.preds[int(v)*m.w : (int(v)+1)*m.w] {
		if x&^(a[i]|b[i]) != 0 {
			return false
		}
	}
	return true
}

// deadPebbles writes to dst the pebbled nodes (in red ∪ blue) whose
// pebble can never matter again in the oneshot model: v is not a sink
// (its pebble is, or will be, the goal) and succ(v) ⊆ comp, the
// computed set.
func (m *nodeMasks) deadPebbles(dst, red, blue, comp []uint64) {
	for i := range dst {
		d := uint64(0)
		for x := (red[i] | blue[i]) &^ m.sinks[i]; x != 0; x &= x - 1 {
			if m.succsIn(dag.NodeID(i*64+bits.TrailingZeros64(x)), comp) {
				d |= x & -x
			}
		}
		dst[i] = d
	}
}

// succsIn reports whether every successor of v is in set.
func (m *nodeMasks) succsIn(v dag.NodeID, set []uint64) bool {
	if m.succs == nil {
		for _, x := range m.g.Succs(v) {
			if !hasBit(set, x) {
				return false
			}
		}
		return true
	}
	if m.w == 1 {
		return m.succs[v]&^set[0] == 0
	}
	for i, x := range m.succs[int(v)*m.w : (int(v)+1)*m.w] {
		if x&^set[i] != 0 {
			return false
		}
	}
	return true
}

// appendMoves appends every legal move from the state packed in key
// that survives the safe reductions onto the shared move buffer
// (callers manage the buffer: the best-first loop truncates it first,
// the DFS keeps a stack of levels in it). It reads the key's red, blue
// and computed words and the static node masks and never builds a
// pebble.State. Every move kind is a mask expression over them:
//
//   - Compute: the candidates are (sources | ⋃_{u∈red} succ(u)) minus
//     red, minus the uncomputable sources and, in oneshot, minus the
//     computed set; a candidate v is kept iff preds(v) ⊆ red. Only while
//     popcount(red) < R.
//   - Load: every blue node, while popcount(red) < R.
//   - Store: every red node.
//   - Delete: every pebbled node (none in nodel).
//
// The moves come out in a fixed order, each kind ascending by node:
// the dead-pebble quotient's delete (alone), then computes, loads,
// stores and deletes.
//
// With the safe reductions on (c.normal: pruning and heuristic on, every
// model) it generates only the moves of a normal form that some optimal
// completion from every state obeys:
//
//   - (1) Evict only when full: Store and Delete of a red pebble only
//     when all R red pebbles are placed, except a sink's Store under
//     SinksMustBeBlue; never Delete of a blue pebble.
//   - (2) Load only for a ready consumer: Load(v) only if some successor
//     w of v is not red (in oneshot, not yet computed) and every
//     predecessor of w holds a pebble.
//
// The argument: take a shortest optimal completion T from a state s. Deleting a
// blue pebble never enables a move, so T has none. Let C = Compute(w) be
// T's first compute, and Q the loads and evictions before it. In a
// shortest optimal T no node is both loaded and evicted in Q (the pair
// is wasted cost or wasted moves), and no evicted node is w or an input
// of w. A load in Q of a node that is not an input of w moves to just
// after C: the node stays blue one stretch longer, which frees a red
// slot and touches no other move. Rebuild Q as: load the inputs of w,
// evicting one node of Q's evictions whenever the red set is full and a
// slot is needed (for a load or for C itself); the evictions not needed
// move to just after C. Every move stays legal and the cost is
// unchanged, and the rebuilt completion starts with a move that rule (1)
// or (2) keeps: an eviction at a full red set, a load of an input of w
// (w is not red, and each input of w is red or about to be loaded, so
// holds a pebble), or C. A completion without computes keeps only the
// sink Stores under SinksMustBeBlue, the exception in (1). Induction on
// the length of T then gives an optimal completion in normal form from
// every state, so the optimum, and the cost-to-go of every state, is
// unchanged.
//
// Both rules depend only on the state and are invariant under node
// relabeling, so they commute with DAG automorphisms: symmetry reduction
// stays sound, duplicate detection compares like with like, and the
// heuristic stays admissible for the reduced move set (no state's
// cost-to-go rises). The min-open-f certificate, PruneBound and warm
// starts rest on exactly that, so they stay sound too.
//
// With pruning on in oneshot (c.dominance), stores and deletes also
// pass the dominance rules (argued where they are applied below), one
// mask operation each against the state's dead pebbles (deadPebbles:
// pebbled non-sinks v with succ(v) ⊆ computed), which also give the
// dead-pebble quotient its delete.
func (c *searchCtx) appendMoves(key pebble.PackedKey) {
	m := c.masks
	w := m.w
	red, blue, comp := key[:w:w], key[w:2*w:2*w], key[2*w:3*w:3*w]

	// Dead-pebble quotient (oneshot only): a pebbled non-sink node whose
	// successors are all computed can never be useful again — its value
	// has no remaining consumer and recomputation is banned, so deleting
	// it is free and safe, and any completion that keeps it around can be
	// rewritten to delete it first at no extra cost. Forcing that delete
	// as the single candidate move collapses every family of states that
	// differ only in dead pebbles. Applied only with the heuristic and
	// pruning on, so HeuristicOff remains the faithful seed search.
	dead := c.deadSet
	if c.dominance {
		m.deadPebbles(dead, red, blue, comp)
	}
	if c.macro {
		for i, x := range dead {
			if x != 0 {
				v := dag.NodeID(i*64 + bits.TrailingZeros64(x))
				c.moveBuf = append(c.moveBuf, pebble.Move{Kind: pebble.Delete, Node: v})
				return
			}
		}
	}

	full := onesCount(red) >= c.p.R
	if !full {
		// Compute: sources and successors of red nodes are the only nodes
		// whose inputs can all be red.
		cands := c.computeCands
		copy(cands, m.sources)
		for i, x := range red {
			for ; x != 0; x &= x - 1 {
				m.orSuccs(cands, dag.NodeID(i*64+bits.TrailingZeros64(x)))
			}
		}
		for i, x := range cands {
			x &^= red[i] | m.uncomputable[i]
			if c.oneshot {
				x &^= comp[i]
			}
			for ; x != 0; x &= x - 1 {
				v := dag.NodeID(i*64 + bits.TrailingZeros64(x))
				if m.predsIn(v, red, red) {
					c.moveBuf = append(c.moveBuf, pebble.Move{Kind: pebble.Compute, Node: v})
				}
			}
		}
		// Load: any blue node, while a red slot is free; in normal form
		// only one with a ready consumer (rule 2).
		for i, x := range blue {
			for ; x != 0; x &= x - 1 {
				v := dag.NodeID(i*64 + bits.TrailingZeros64(x))
				if c.normal && !c.readyConsumer(red, blue, comp, v) {
					continue
				}
				c.moveBuf = append(c.moveBuf, pebble.Move{Kind: pebble.Load, Node: v})
			}
		}
	}

	// Dominance rules (c.dominance) that cannot exclude every optimal
	// solution. All rules are specific to the oneshot model, where a
	// node's value exists only once: recomputation is impossible, so
	// every node must be computed exactly once, and a deleted value can
	// never return.
	//
	//   - Deleting a pebble from a sink makes the instance unwinnable (the
	//     sink cannot be recomputed and a node holds only one pebble).
	//   - Deleting a node that still has uncomputed successors likewise makes
	//     those successors uncomputable.
	//   - Storing a dead node (all successors computed, not a sink) is wasted
	//     cost: Delete frees the red slot for free.
	//
	// In base and compcost the analogous prunes are NOT safe: deleting a
	// red sink and recomputing it later (cost 0 or ε) can beat storing it
	// (cost 1). As mask operations: stores keep red &^ dead, and deletes
	// keep only dead pebbles.

	// Store: any red node; in normal form only with the red set full,
	// or a sink that must end blue (rule 1).
	for i, x := range red {
		if c.normal && !full {
			if !c.p.Convention.SinksMustBeBlue {
				break
			}
			x &= m.sinks[i]
		}
		if c.dominance {
			x &^= dead[i]
		}
		for ; x != 0; x &= x - 1 {
			c.moveBuf = append(c.moveBuf, pebble.Move{Kind: pebble.Store, Node: dag.NodeID(i*64 + bits.TrailingZeros64(x))})
		}
	}
	// Delete: any pebbled node (banned wholesale in nodel); in normal
	// form only a red one with the red set full (rule 1).
	if c.p.Model.Kind == pebble.NoDel || (c.normal && !full) {
		return
	}
	for i := 0; i < w; i++ {
		x := red[i]
		if !c.normal {
			x |= blue[i]
		}
		if c.dominance {
			x &= dead[i]
		}
		for ; x != 0; x &= x - 1 {
			c.moveBuf = append(c.moveBuf, pebble.Move{Kind: pebble.Delete, Node: dag.NodeID(i*64 + bits.TrailingZeros64(x))})
		}
	}
}

// readyConsumer reports whether blue node v has a successor that a
// Compute could use it for next (rule 2 of appendMoves): one that is not
// red, not yet computed in oneshot, and whose every input holds a
// pebble. red, blue and comp are the state's packed words.
func (c *searchCtx) readyConsumer(red, blue, comp []uint64, v dag.NodeID) bool {
	m := c.masks
	if m.succs == nil {
		for _, x := range m.g.Succs(v) {
			if hasBit(red, x) || (c.oneshot && hasBit(comp, x)) {
				continue
			}
			if m.predsIn(x, red, blue) {
				return true
			}
		}
		return false
	}
	for i, x := range m.succs[int(v)*m.w : (int(v)+1)*m.w] {
		x &^= red[i]
		if c.oneshot {
			x &^= comp[i]
		}
		for ; x != 0; x &= x - 1 {
			if m.predsIn(dag.NodeID(i*64+bits.TrailingZeros64(x)), red, blue) {
				return true
			}
		}
	}
	return false
}

// childKey writes to dst the packed key of the state that move mv
// reaches from the state packed in key, and returns it: key with at
// most three bits flipped. mv must be legal there (appendMoves emitted
// it); a pebble is never red and blue at once, so Compute and Delete
// clear both colors' bits.
func (c *searchCtx) childKey(dst, key pebble.PackedKey, mv pebble.Move) pebble.PackedKey {
	if cap(dst) < len(key) {
		dst = make(pebble.PackedKey, len(key))
	}
	dst = dst[:len(key)]
	for i, x := range key {
		dst[i] = x // a loop: key is a few words, too short for memmove to pay
	}
	w := c.masks.w
	i, bit := int(mv.Node>>6), uint64(1)<<(uint(mv.Node)&63)
	switch mv.Kind {
	case pebble.Load:
		dst[i] |= bit
		dst[w+i] &^= bit
	case pebble.Store:
		dst[i] &^= bit
		dst[w+i] |= bit
	case pebble.Compute:
		dst[i] |= bit
		dst[w+i] &^= bit
		dst[2*w+i] |= bit
	case pebble.Delete:
		dst[i] &^= bit
		dst[w+i] &^= bit
	}
	return dst
}

// complete reports whether the state packed in key reaches the goal:
// sinks ⊆ blue under SinksMustBeBlue, else sinks ⊆ red ∪ blue.
func (c *searchCtx) complete(key pebble.PackedKey) bool {
	w := c.masks.w
	for i, s := range c.masks.sinks {
		have := key[w+i]
		if !c.p.Convention.SinksMustBeBlue {
			have |= key[i]
		}
		if s&^have != 0 {
			return false
		}
	}
	return true
}

// hasBit reports whether node v's bit is set in the packed words ws.
func hasBit(ws []uint64, v dag.NodeID) bool {
	return ws[v>>6]&(1<<(uint(v)&63)) != 0
}
