package solve

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"rbpebble/internal/bitset"
	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// refMoveGen is the reference move generator: the State-based one the
// exact engines used before they expanded packed keys. It collects
// compute candidates in a bitset, tests every candidate with
// State.CanApply and applies the oneshot dominance rules per move
// (prunedMove), reading the position off a pebble.State. appendMoves
// must emit exactly its moves, in its order.
type refMoveGen struct {
	p       Problem
	g       *dag.DAG
	sources []dag.NodeID
	prune   bool

	// normal restricts move generation to the normal form (heuristic
	// on, pruning on), and macro adds the dead-pebble quotient in
	// oneshot.
	normal, macro bool

	cand    *bitset.Set // compute-candidate scratch set
	candBuf []uint64    // reused word snapshot of cand
	moveBuf []pebble.Move
}

func newRefMoveGen(p Problem, opts ExactOptions) *refMoveGen {
	c := &refMoveGen{
		p:       p,
		g:       p.G,
		sources: p.G.Sources(),
		prune:   !opts.DisablePruning,
		cand:    bitset.New(p.G.N()),
	}
	c.normal = c.prune && opts.Heuristic != HeuristicOff
	c.macro = c.normal && p.Model.Kind == pebble.Oneshot
	return c
}

// refAppendMoves appends every legal move from st that survives the
// safe reductions onto the move buffer. key is st's packed encoding,
// whose words double as the red/blue iteration sets, so the generator
// only visits nodes adjacent to the current pebbles — compute
// candidates are the sources plus successors of red nodes; loads scan
// the blue set; stores and deletes scan the pebbled sets — and each
// candidate move is checked with State.CanApply and prunedMove.
func (c *refMoveGen) refAppendMoves(st *pebble.State, key pebble.PackedKey) {
	w := len(key) / 3
	red, blue := key[:w], key[w:2*w]

	// Dead-pebble quotient (oneshot only): the first pebbled dead node
	// is deleted, as the single candidate move.
	if c.macro {
		for wi := 0; wi < w; wi++ {
			wd := red[wi] | blue[wi]
			for wd != 0 {
				v := dag.NodeID(wi*64 + bits.TrailingZeros64(wd))
				wd &= wd - 1
				if c.deadPebble(st, v) {
					c.moveBuf = append(c.moveBuf, pebble.Move{Kind: pebble.Delete, Node: v})
					return
				}
			}
		}
	}

	full := st.RedCount() >= c.p.R
	// Compute: sources and successors of red nodes are the only nodes
	// whose inputs can all be red. Check finishes the legality test.
	if !full {
		c.cand.Reset()
		for _, s := range c.sources {
			c.cand.Set(int(s))
		}
		for wi, wd := range red {
			for wd != 0 {
				u := dag.NodeID(wi*64 + bits.TrailingZeros64(wd))
				wd &= wd - 1
				for _, v := range c.g.Succs(u) {
					c.cand.Set(int(v))
				}
			}
		}
		c.candBuf = c.cand.AppendWords(c.candBuf[:0])
		for wi, wd := range c.candBuf {
			for wd != 0 {
				v := dag.NodeID(wi*64 + bits.TrailingZeros64(wd))
				wd &= wd - 1
				c.consider(st, pebble.Move{Kind: pebble.Compute, Node: v})
			}
		}
		// Load: any blue node, while a red slot is free; in normal form
		// only one with a ready consumer (rule 2).
		for wi, wd := range blue {
			for wd != 0 {
				v := dag.NodeID(wi*64 + bits.TrailingZeros64(wd))
				wd &= wd - 1
				if c.normal && !c.readyConsumer(st, v) {
					continue
				}
				c.consider(st, pebble.Move{Kind: pebble.Load, Node: v})
			}
		}
	}
	// Store: any red node; in normal form only with the red set full,
	// or a sink that must end blue (rule 1).
	for wi, wd := range red {
		for wd != 0 {
			v := dag.NodeID(wi*64 + bits.TrailingZeros64(wd))
			wd &= wd - 1
			if c.normal && !full && !(c.p.Convention.SinksMustBeBlue && c.g.IsSink(v)) {
				continue
			}
			c.consider(st, pebble.Move{Kind: pebble.Store, Node: v})
		}
	}
	// Delete: any pebbled node (banned wholesale in nodel); in normal
	// form only a red one with the red set full (rule 1).
	if c.p.Model.Kind == pebble.NoDel || (c.normal && !full) {
		return
	}
	for wi := 0; wi < w; wi++ {
		wd := red[wi]
		if !c.normal {
			wd |= blue[wi]
		}
		for wd != 0 {
			v := dag.NodeID(wi*64 + bits.TrailingZeros64(wd))
			wd &= wd - 1
			c.consider(st, pebble.Move{Kind: pebble.Delete, Node: v})
		}
	}
}

// readyConsumer reports whether blue node v has a successor that a
// Compute could use it for next (rule 2): one that is not red, not yet
// computed in oneshot, and whose every input holds a pebble.
func (c *refMoveGen) readyConsumer(st *pebble.State, v dag.NodeID) bool {
	oneshot := c.p.Model.Kind == pebble.Oneshot
	for _, x := range c.g.Succs(v) {
		if st.IsRed(x) || (oneshot && st.WasComputed(x)) {
			continue
		}
		pebbled := true
		for _, u := range c.g.Preds(x) {
			pebbled = pebbled && st.HasPebble(u)
		}
		if pebbled {
			return true
		}
	}
	return false
}

// deadPebble reports whether pebbled node v can never matter again in
// the oneshot model: it is not a sink and every successor is already
// computed.
func (c *refMoveGen) deadPebble(st *pebble.State, v dag.NodeID) bool {
	succs := c.g.Succs(v)
	if len(succs) == 0 {
		return false // sink: its pebble is (or will be) the goal
	}
	for _, x := range succs {
		if !st.WasComputed(x) {
			return false
		}
	}
	return true
}

func (c *refMoveGen) consider(st *pebble.State, m pebble.Move) {
	if !st.CanApply(m) {
		return
	}
	if c.prune && prunedMove(c.p, st, m) {
		return
	}
	c.moveBuf = append(c.moveBuf, m)
}

// prunedMove applies the oneshot dominance rules to one move: a Delete
// of a sink or of a node with an uncomputed successor, and a Store of
// a dead non-sink node, are pruned.
func prunedMove(p Problem, st *pebble.State, m pebble.Move) bool {
	if p.Model.Kind != pebble.Oneshot {
		return false
	}
	g := p.G
	switch m.Kind {
	case pebble.Delete:
		if g.IsSink(m.Node) {
			return true
		}
		for _, w := range g.Succs(m.Node) {
			if !st.WasComputed(w) {
				return true
			}
		}
		return false
	case pebble.Store:
		if g.IsSink(m.Node) {
			return false
		}
		for _, w := range g.Succs(m.Node) {
			if !st.WasComputed(w) {
				return false
			}
		}
		return true // dead non-sink: Delete dominates Store
	default:
		return false
	}
}

// movesFuzzGraph decodes a fuzz input into a DAG: lbFuzzGraph's
// families (random layered DAGs, fft(3) and fft(4), pyramids, grids and
// random DAGs, every family past 64 nodes), and for one shape in
// sixteen a random layered DAG of 600 nodes, above capMaxN, where the
// node masks fall back to the adjacency lists.
func movesFuzzGraph(seed int64, shape uint8) *dag.DAG {
	if shape%16 == 15 {
		return daggen.RandomLayered(20, 30, 2+int(shape/16%2), seed)
	}
	return lbFuzzGraph(seed, shape)
}

// randomMovesKey writes to dst the packed key of a random position of
// p, whether reachable or not: the inputs of a random node red, so that
// it is computable while the red set has room, a few more red nodes up
// to R, a quarter of the other nodes blue and half of all nodes
// computed.
func randomMovesKey(rng *rand.Rand, p Problem, dst pebble.PackedKey) pebble.PackedKey {
	n := p.G.N()
	w := (n + 63) / 64
	dst = append(dst[:0], make(pebble.PackedKey, 3*w)...)
	red, blue, comp := dst[:w], dst[w:2*w], dst[2*w:]
	nred := 0
	for _, u := range p.G.Preds(dag.NodeID(rng.Intn(n))) {
		setBit(red, u)
		nred++
	}
	for v := dag.NodeID(0); int(v) < n; v++ {
		switch {
		case hasBit(red, v):
		case nred < p.R && rng.Intn(16) == 0:
			setBit(red, v)
			nred++
		case rng.Intn(4) == 0:
			setBit(blue, v)
		}
		if rng.Intn(2) == 0 {
			setBit(comp, v)
		}
	}
	return dst
}

// movesFuzzOptions are the generator switches the fuzz cases cover:
// the normal form (every reduction on), the dominance rules alone
// (heuristic off) and no reduction at all.
var movesFuzzOptions = [...]ExactOptions{
	{},
	{Heuristic: HeuristicOff},
	{DisablePruning: true},
}

// FuzzMovesMatchReference requires appendMoves, which reads the packed
// key word by word, to emit exactly the reference generator's moves in
// the same order on every state of a random walk; every child key from
// childKey to equal the key of the reference State after ApplyForUndo;
// and the key goal test to agree with State.Complete. It covers every
// model and convention, R from Δ+1 to Δ+3, and the three generator
// switches of movesFuzzOptions. The walk takes a generated move three
// times in four and any legal move otherwise, so it also leaves the
// normal form; every other step it takes the compute of the highest
// node instead, when there is one, to reach deep states. At a complete
// state or one without legal moves, and at random one step in fifty,
// it restarts, alternately from the start state and from a random one
// (randomMovesKey), which reaches every node ID. Under plain go test it
// runs the seed slice and requires it to reach computes past node 63
// on the masks, the dominance rules on the adjacency fallback, the
// dead-pebble quotient and both dominance rules.
func FuzzMovesMatchReference(f *testing.F) {
	// The seed slice: every model under every convention and switch,
	// with the 600-node DAG in oneshot and compcost under every switch.
	nseeds := 0
	for mode := uint8(0); mode < uint8(len(movesFuzzOptions)); mode++ {
		for kind := uint8(0); kind < 4; kind++ {
			for conv := uint8(0); conv < 4; conv++ {
				i := mode*16 + kind*4 + conv
				shape := i * 37
				if kind%2 == 1 && conv == (kind+mode)%4 {
					shape |= 15
				}
				f.Add(int64(i), shape, kind, conv, i%3, mode)
				nseeds++
			}
		}
	}
	var runs, states, multiWord, highComputes, fallback, fallbackPruned, quotient, storePruned, deletePruned int
	f.Fuzz(func(t *testing.T, seed int64, shape, kind, conv, slack, mode uint8) {
		runs++
		g := movesFuzzGraph(seed, shape)
		p := Problem{
			G:          g,
			Model:      pebble.NewModel(pebble.AllKinds()[kind%4]),
			R:          pebble.MinFeasibleR(g) + int(slack%3),
			Convention: oracleConventions[conv%4],
		}
		start, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
		if err != nil {
			t.Skip(err)
		}
		opts := movesFuzzOptions[int(mode)%len(movesFuzzOptions)]
		c := newSearchCtx(p, opts, start)
		ref := newRefMoveGen(p, opts)
		if c.masks.w > 1 {
			multiWord++
		}
		if c.masks.preds == nil {
			fallback++
		}
		rng := rand.New(rand.NewSource(seed))
		st, view := start.Clone(), start.Clone()
		var key, got, want pebble.PackedKey
		var legal []pebble.Move
		restarts := 0
		restart := func() {
			restarts++
			if restarts%2 == 1 {
				st = start.Clone()
				return
			}
			key = randomMovesKey(rng, p, key)
			st.RestorePacked(key)
		}
		for step := 0; step < lbWalkSteps; step++ {
			key = st.AppendPacked(key[:0])
			ref.moveBuf = ref.moveBuf[:0]
			ref.refAppendMoves(st, key)
			c.moveBuf = c.moveBuf[:0]
			c.appendMoves(key)
			if !slices.Equal(c.moveBuf, ref.moveBuf) {
				t.Fatalf("%s R=%d %s %+v, step %d, state %v:\n got moves %v\nwant moves %v",
					p.Model, p.R, convName(p.Convention), opts, step, st, c.moveBuf, ref.moveBuf)
			}
			// The goal test also sees the key with every bare sink made
			// red, where SinksMustBeBlue alone decides it.
			got = append(got[:0], key...)
			w := c.masks.w
			for i, s := range c.masks.sinks {
				got[i] |= s &^ got[w+i]
			}
			view.RestorePacked(got)
			if c.complete(key) != st.Complete() || c.complete(got) != view.Complete() {
				t.Fatalf("%s %s, state %v: key goal test %t (%t with bare sinks red), State.Complete %t (%t)",
					p.Model, convName(p.Convention), st, c.complete(key), c.complete(got), st.Complete(), view.Complete())
			}
			states++
			for _, m := range c.moveBuf {
				if m.Kind == pebble.Compute && m.Node >= 64 && c.masks.preds != nil {
					highComputes++
				}
			}
			if ref.macro && len(ref.moveBuf) == 1 && ref.moveBuf[0].Kind == pebble.Delete && ref.deadPebble(st, ref.moveBuf[0].Node) {
				quotient++
			}
			for _, mv := range c.moveBuf {
				undo, err := st.ApplyForUndo(mv)
				if err != nil {
					t.Fatalf("state %v: generated illegal move %v: %v", st, mv, err)
				}
				want = st.AppendPacked(want[:0])
				st.Undo(undo)
				got = c.childKey(got, key, mv)
				if !slices.Equal(got, want) {
					t.Fatalf("state %v, move %v: child key %x, want %x", st, mv, got, want)
				}
			}
			if st.Complete() || rng.Intn(50) == 0 {
				restart()
				continue
			}
			legal = legal[:0]
			for v := 0; v < p.G.N(); v++ {
				for _, k := range []pebble.MoveKind{pebble.Compute, pebble.Load, pebble.Store, pebble.Delete} {
					m := pebble.Move{Kind: k, Node: dag.NodeID(v)}
					if !st.CanApply(m) {
						continue
					}
					legal = append(legal, m)
					if ref.prune && prunedMove(p, st, m) {
						if k == pebble.Store {
							storePruned++
						} else {
							deletePruned++
						}
						if c.masks.preds == nil {
							fallbackPruned++
						}
					}
				}
			}
			moves := c.moveBuf
			if len(moves) == 0 || rng.Intn(4) == 0 {
				moves = legal
			}
			// Every other step takes the compute of the highest node, when
			// there is one, which carries the walk deep into the DAG: to
			// high node IDs and computed successors.
			if rng.Intn(2) == 0 {
				for i := len(moves) - 1; i >= 0; i-- {
					if moves[i].Kind == pebble.Compute {
						moves = moves[i : i+1]
						break
					}
				}
			}
			if len(moves) == 0 {
				restart()
				continue
			}
			st.MustApply(moves[rng.Intn(len(moves))])
		}
	})
	if runs != nseeds {
		return // fuzzing, or a filtered run: the counts cover another set
	}
	f.Logf("%d states compared; %d cases with multi-word keys (%d computes of a node past 63 on masks), %d on adjacency lists; %d quotient deletes, %d stores and %d deletes pruned (%d on adjacency lists)",
		states, multiWord, highComputes, fallback, quotient, storePruned, deletePruned, fallbackPruned)
	if highComputes == 0 || fallbackPruned == 0 || quotient == 0 || storePruned == 0 || deletePruned == 0 {
		f.Errorf("the seed slice missed a path: %d computes past node 63 on masks, %d dominance prunes on adjacency lists; %d quotient deletes, %d stores and %d deletes pruned",
			highComputes, fallbackPruned, quotient, storePruned, deletePruned)
	}
}
