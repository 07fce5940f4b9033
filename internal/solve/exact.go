package solve

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"rbpebble/internal/bitset"
	"rbpebble/internal/canon"
	"rbpebble/internal/dag"
	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
)

// ErrStateLimit is returned by Exact when the search exceeds
// ExactOptions.MaxStates before proving an optimum.
var ErrStateLimit = errors.New("solve: state limit exceeded")

// ErrCanceled is returned by the exact solvers when their Cancel channel
// fires before the optimum is proven. The Stats snapshot (including the
// certified LowerBound harvested from the open frontier) is still
// filled, so anytime callers can salvage the partial certificate.
var ErrCanceled = errors.New("solve: search canceled")

// ErrBoundExhausted is returned by Exact when ExactOptions.PruneBound
// is set and the search space is exhausted without finding any
// completion below the bound. It is a POSITIVE
// certificate: the optimum is at least PruneBound, and Stats.LowerBound
// reflects that — a warm-started refinement seeing this error has just
// proven its cached incumbent optimal.
var ErrBoundExhausted = errors.New("solve: bound exhausted")

// ErrMemoryBudget is returned by the exact engines when their
// visited-state tables outgrow ExactOptions.MaxTableBytes (or the DFS
// equivalent) before the optimum is proven. Like ErrCanceled, the Stats
// snapshot is filled with the certified LowerBound harvested when the
// budget tripped, so anytime callers degrade to a certified partial
// interval instead of OOMing the process.
var ErrMemoryBudget = errors.New("solve: table memory budget exceeded")

// ExactOptions configures the exact solver.
type ExactOptions struct {
	// MaxStates caps the number of expanded states (0 means the default
	// of 2,000,000). The search fails with ErrStateLimit beyond it.
	MaxStates int
	// MaxTableBytes caps the visited-state table's backing-store
	// footprint (probe slots plus allocated row chunks; 0 = unlimited).
	// The node log and open list are not charged. Growth past the
	// budget aborts the search with ErrMemoryBudget, with Stats filled
	// — including the certified LowerBound — so callers harvest a
	// partial certificate instead of letting the search OOM the
	// process. Enforcement is periodic (the search checks at its
	// cancellation gate), so the real peak can overshoot the budget by
	// one gate interval's growth.
	MaxTableBytes int64
	// DisablePruning turns off the safe reductions: the dominance
	// prunes, the normal-form move rules, the dead-pebble quotient and
	// serial A*'s symmetry reduction (for the ablation benchmark and the
	// differential tests; the optimum is identical, only slower). With
	// HeuristicOff as well, Exact is the unpruned Dijkstra reference.
	DisablePruning bool
	// Heuristic switches the A* lower bound: the zero value
	// (HeuristicAuto) searches under the one admissible model-aware
	// bound (see lowerBound), and HeuristicOff reverts to plain Dijkstra
	// with the bound-dependent reductions off. Either way the returned
	// cost is the exact optimum.
	Heuristic Heuristic
	// InitialLowerBound, if > 0, is a lower bound on the optimal scaled
	// cost that the CALLER has already certified (e.g. a cached interval
	// from an earlier deadline-limited solve of the same instance). The
	// search seeds its running frontier certificate with it, so a
	// canceled search never reports a LowerBound below what was already
	// proven. Passing an uncertified value breaks the LowerBound
	// contract — the search itself stays correct, but the reported
	// bound would lie.
	InitialLowerBound int64
	// PruneBound, if > 0, is an exclusive upper bound on interesting
	// completions: the search discards every generated state whose
	// f = g + h reaches it. With an admissible heuristic any completion
	// cheaper than PruneBound keeps all its prefix states
	// strictly below the bound, so the optimum is still found whenever
	// it is cheaper than PruneBound. Callers set it to incumbent+1
	// (warm-started refinement from a cached trace) so equal-cost optima
	// are still discovered and proven. Exhausting the search under the
	// bound yields the ErrBoundExhausted certificate.
	PruneBound int64
	// Stats, when non-nil, receives search counters (states expanded,
	// pushed, distinct) after the solve, successful or not.
	Stats *ExactStats
	// Cancel, when non-nil, makes the search stop cooperatively once the
	// channel is closed: Exact returns ErrCanceled with Stats filled,
	// including the certified frontier lower bound harvested at
	// shutdown. The channel is also polled while the symmetry tables
	// are built, before the first expansion; a cancel there reports
	// InitialLowerBound. The anytime orchestrator uses this to turn a
	// deadline into a [lower, upper] certificate instead of a wasted
	// solve.
	Cancel <-chan struct{}
	// Progress, when non-nil, receives periodic search snapshots on a
	// time-based cadence (ProgressEvery), sampled at the search's
	// periodic gate; each carries the certified lower bound so far. The
	// callback runs on the solver goroutine and must be fast. With
	// Progress nil the search builds no snapshots and pays only a nil
	// check at the gate.
	Progress func(ExactProgress)
	// ProgressEvery is the snapshot cadence (default ~100ms). Ignored
	// without a Progress listener.
	ProgressEvery time.Duration
}

// ExactProgress is one periodic snapshot of a running exact search —
// the live shape of the search, not just its counters. The engines
// build the wire type directly (see snapshot.go); Engine names which
// one filled it (astar here, ida-star for ExactDFS).
type ExactProgress = obs.SearchSnapshot

// ExactStats reports search-effort counters from one Exact run.
type ExactStats struct {
	// Expanded is the number of states popped from the open list and
	// expanded (goal and stale pops excluded).
	Expanded int
	// Pushed is the number of open-list insertions (improvements).
	Pushed int
	// Distinct is the number of distinct states ever reached. Under
	// serial A*'s symmetry reduction it counts orbit representatives:
	// states that differ by a DAG automorphism share one entry.
	Distinct int
	// LowerBound is the best certified lower bound (scaled cost units)
	// on the optimum when the search stopped: the optimum itself on
	// success, else the largest min-f observed over the open frontier.
	// Under an admissible heuristic every completion always has an open
	// entry with f no larger than its cost, so the min open f never
	// exceeds the true optimum — each observation is a certificate.
	LowerBound int64
	// TableBytes is the visited-state table's backing-store footprint
	// (probe slots plus allocated row chunks) when the search stopped.
	// The table only grows within a run, so this is the peak.
	TableBytes int64
}

// searchNode records how a state was reached, for path reconstruction:
// the open-list push that created it, its table ref, and the move taken
// from the parent node. Nodes are append-only, so parent chains are
// immutable snapshots and cannot cycle.
type searchNode struct {
	parent int32 // index into the node log, -1 for the root
	ref    int32 // state ref in the table
	move   packedMove
}

// serialMem is the search memory of one serial A* run: the visited
// table, the node log and the open list. Each reports its own
// footprint, so the sum is what the search holds.
type serialMem struct {
	table *stateTable
	nodes chunkList[searchNode]
	open  bucketQueue
}

func (m *serialMem) bytes() int64 {
	return m.table.bytes() + m.nodes.bytes() + m.open.bytes()
}

// Exact finds a provably minimum-cost pebbling by best-first search over
// the state space (red set, blue set, computed set): A* under an
// admissible lower bound (see Heuristic), degenerating to Dijkstra with
// the bound off. It works for every model variant but scales only to
// small DAGs — which is the paper's point: the problem is NP-hard
// (PSPACE-hard in base).
//
// The search core is allocation-free on the hot path: states are packed
// into []uint64 keys deduplicated in an open-addressing table, the open
// list is a bucketQueue (f-indexed buckets, each a g-ordered heap, with
// an overflow heap for f >= 2^15), move generation is restricted to the
// red frontier, and candidate moves are applied and undone on a single
// scratch state instead of cloning.
//
// With the safe reductions on (pruning and the heuristic), move
// generation keeps only a normal form that some optimal completion from
// every state obeys — evict only when the red set is full, load only
// for a ready consumer (see searchCtx.appendMoves) — and serial A* also
// stores one representative per automorphism orbit of states: the
// pebbling models ignore node labels, so states that differ by a DAG
// automorphism have the same cost-to-go. It searches the DAG's
// canonical relabeling, so its effort does not depend on how the
// caller numbered the nodes, and maps the trace back (see
// symmetry.go). HeuristicOff stays the faithful Dijkstra reference, and
// IDA* (ExactDFS) shares the move rules but searches without symmetry.
//
// The returned solution is replay-verified. Exact returns ErrStateLimit
// if the state budget is exhausted first.
func Exact(p Problem, opts ExactOptions) (Solution, error) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 2_000_000
	}
	start, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
	if err != nil {
		return Solution{}, err
	}
	if start.Complete() {
		// Degenerate: no sinks to pebble (empty graph) or sources start
		// blue and are the only sinks.
		tr := &pebble.Trace{Model: p.Model, R: p.R, Convention: p.Convention}
		return verify(p, tr), nil
	}
	return exactSerial(p, opts, start, maxStates, new(serialMem))
}

// searchCtx bundles the scratch structures of one search: everything
// is reused across expansions, so the steady-state loop allocates only
// when the table, heap or node log grow.
type searchCtx struct {
	p        Problem
	g        *dag.DAG
	scale    int64 // scaled cost of a transfer
	compCost int64 // scaled cost of a compute
	sources  []dag.NodeID
	prune    bool

	// normal restricts move generation to the normal form (heuristic
	// on, pruning on), and macro adds the dead-pebble quotient in
	// oneshot: see appendMoves.
	normal, macro bool

	scratch *pebble.State
	lb      *lowerBound
	cand    *bitset.Set // compute-candidate scratch set
	candBuf []uint64    // reused word snapshot of cand
	moveBuf []pebble.Move
	keyBuf  pebble.PackedKey
}

func newSearchCtx(p Problem, opts ExactOptions, start *pebble.State) *searchCtx {
	c := &searchCtx{
		p:       p,
		g:       p.G,
		scale:   1,
		sources: p.G.Sources(),
		prune:   !opts.DisablePruning,
		scratch: start.Clone(),
		cand:    bitset.New(p.G.N()),
		keyBuf:  start.AppendPacked(nil),
	}
	c.lb = newLowerBound(p, opts.Heuristic, c.keyBuf)
	if p.Model.Kind == pebble.CompCost {
		c.scale = int64(p.Model.EpsDenom)
		c.compCost = 1
	}
	c.normal = c.prune && c.lb.enabled
	c.macro = c.normal && p.Model.Kind == pebble.Oneshot
	return c
}

// moveCost returns the scaled cost of one move under the model.
func (c *searchCtx) moveCost(m pebble.Move) int64 {
	switch m.Kind {
	case pebble.Load, pebble.Store:
		return c.scale
	case pebble.Compute:
		return c.compCost
	default:
		return 0
	}
}

// appendMoves appends every legal move from st that survives the safe
// reductions onto the shared move buffer (callers manage the buffer: the
// best-first loop truncates it first, the DFS keeps a stack of levels in
// it). key is st's packed encoding, whose words double as the red/blue
// iteration sets, so the generator only visits nodes adjacent to the
// current pebbles — compute candidates are the sources plus successors
// of red nodes; loads scan the blue set; stores and deletes scan the
// pebbled sets — instead of testing all n nodes against all four move
// kinds.
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
// The argument: take a shortest optimal completion T from st. Deleting a
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
func (c *searchCtx) appendMoves(st *pebble.State, key pebble.PackedKey) {
	w := len(key) / 3
	red, blue := key[:w], key[w:2*w]

	// Dead-pebble quotient (oneshot only): a pebbled non-sink node whose
	// successors are all computed can never be useful again — its value
	// has no remaining consumer and recomputation is banned, so deleting
	// it is free and safe, and any completion that keeps it around can be
	// rewritten to delete it first at no extra cost. Forcing that delete
	// as the single candidate move collapses every family of states that
	// differ only in dead pebbles. Applied only with the heuristic and
	// pruning on, so HeuristicOff remains the faithful seed search.
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
				if c.normal && !c.readyConsumer(key, v) {
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
// Compute could use it for next (rule 2 of appendMoves): one that is not
// red, not yet computed in oneshot, and whose every input holds a
// pebble. key is the state's packed encoding.
func (c *searchCtx) readyConsumer(key pebble.PackedKey, v dag.NodeID) bool {
	w := len(key) / 3
	red, blue, computed := key[:w], key[w:2*w], key[2*w:]
	oneshot := c.p.Model.Kind == pebble.Oneshot
	for _, x := range c.g.Succs(v) {
		if hasBit(red, x) || (oneshot && hasBit(computed, x)) {
			continue
		}
		if c.lb.predsPebbled(x, red, blue) {
			return true
		}
	}
	return false
}

// hasBit reports whether node v's bit is set in the packed words ws.
func hasBit(ws []uint64, v dag.NodeID) bool {
	return ws[v>>6]&(1<<(uint(v)&63)) != 0
}

// deadPebble reports whether pebbled node v can never matter again in
// the oneshot model: it is not a sink and every successor is already
// computed.
func (c *searchCtx) deadPebble(st *pebble.State, v dag.NodeID) bool {
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

func (c *searchCtx) consider(st *pebble.State, m pebble.Move) {
	if !st.CanApply(m) {
		return
	}
	if c.prune && prunedMove(c.p, st, m) {
		return
	}
	c.moveBuf = append(c.moveBuf, m)
}

// exactSerial is the sequential A* loop. It builds its table, node log
// and open list in m.
func exactSerial(p Problem, opts ExactOptions, start *pebble.State, maxStates int, m *serialMem) (Solution, error) {
	// Symmetry reduction rides with the other safe reductions (pruning
	// and heuristic on), so HeuristicOff stays the faithful Dijkstra
	// reference. It searches p's canonical relabeling; reconstruct maps
	// the trace back to orig's node IDs.
	// The set-up polls Cancel too: on a large DAG, canonical labeling
	// and the automorphism group search can take over ten milliseconds
	// before the first expansion gate.
	guard := newSearchGuard(opts.Cancel, opts.MaxTableBytes, opts.Progress, opts.ProgressEvery)
	orig := p
	var sym *symmetry
	if !opts.DisablePruning && opts.Heuristic != HeuristicOff {
		p, start, sym = symmetricForm(p, start, guard.canceled)
	}
	if guard.canceled() {
		if opts.Stats != nil {
			*opts.Stats = ExactStats{LowerBound: opts.InitialLowerBound}
		}
		return Solution{}, guard.canceledErr(searchPoint{unit: "states", incumbent: -1, lower: opts.InitialLowerBound})
	}
	c := newSearchCtx(p, opts, start)
	// The table's second payload word caches the (state-only) heuristic
	// value per ref, so each distinct state is estimated once no matter
	// how often it is reached — and the estimate lives on the same row
	// as the cost and key it belongs to.
	m.table = newStateTable(start.PackedWords(), payloadWithH, 1024)
	m.nodes = newChunkList[searchNode](1, 1024)
	table, nodes, open := m.table, &m.nodes, &m.open

	expanded, pushed := 0, 0
	// Certified lower bound: running max of min open f, seeded from the
	// caller's already-certified floor (warm start) when one is given.
	lower := opts.InitialLowerBound
	report := func() {
		if opts.Stats != nil {
			*opts.Stats = ExactStats{Expanded: expanded, Pushed: pushed, Distinct: table.count(), LowerBound: lower, TableBytes: table.bytes()}
		}
	}

	rootKey := start.AppendPacked(nil)
	rootRef, _ := table.lookupOrAdd(rootKey, hashKey(rootKey))
	table.setBest(rootRef, 0)
	nodes.push(searchNode{parent: -1, ref: rootRef})
	h0, dead := c.lb.estimate(rootKey)
	if dead {
		report()
		return Solution{}, ErrInfeasible
	}
	table.setH(rootRef, h0)
	if h0 > lower {
		lower = h0
	}
	open.push(heapEntry{f: h0, g: 0, node: 0})
	pushed = 1

	for open.len() > 0 {
		e := open.pop()
		// e has the smallest f on the open list, so min open f = e.f at
		// this instant; the optimum is at least that (every completion
		// keeps an open entry with f <= its cost), and the running max
		// of these instants is the certificate the anytime layer reads.
		if e.f > lower {
			lower = e.f
		}
		nd := nodes.at(e.node)
		if e.g > table.best(nd.ref) {
			continue // stale entry
		}
		key := table.key(nd.ref)
		c.scratch.RestorePacked(key)
		if c.scratch.Complete() {
			lower = e.g // proven optimal
			report()
			return reconstruct(orig, table, nodes, e.node, sym), nil
		}
		expanded++
		if expanded > maxStates {
			report()
			return Solution{}, fmt.Errorf("%w: %d states", ErrStateLimit, maxStates)
		}
		if expanded&1023 == 0 {
			if err := guard.check(table.bytes(), searchPoint{n: int64(expanded), unit: "states", incumbent: -1, lower: lower}); err != nil {
				report()
				return Solution{}, err
			}
			if guard.due() {
				guard.emit(singleProgress(guard.sampler, expanded, pushed, lower, table, open))
			}
		}

		c.moveBuf = c.moveBuf[:0]
		c.appendMoves(c.scratch, key)
		for _, m := range c.moveBuf {
			undo, err := c.scratch.ApplyForUndo(m)
			if err != nil {
				panic("solve: legalMoves emitted illegal move: " + err.Error())
			}
			childG := e.g + c.moveCost(m)
			c.keyBuf = c.scratch.AppendPacked(c.keyBuf[:0])
			if sym != nil {
				sym.canonize(c.keyBuf)
			}
			childRef, isNew := table.lookupOrAdd(c.keyBuf, hashKey(c.keyBuf))
			var h int64
			if isNew {
				var dead bool
				h, dead = c.lb.estimate(c.keyBuf)
				table.setH(childRef, h)
				if dead {
					table.setBest(childRef, costDead)
					c.scratch.Undo(undo)
					continue
				}
			} else {
				if table.best(childRef) <= childG {
					c.scratch.Undo(undo)
					continue
				}
				h = table.h(childRef)
			}
			if opts.PruneBound > 0 && childG+h >= opts.PruneBound {
				// No completion through this state can stay below the
				// caller's bound (h is admissible); drop it unpushed. Its
				// table entry keeps costUnreached so a cheaper path may
				// still reopen it, and the payload caches h for that
				// reopening.
				c.scratch.Undo(undo)
				continue
			}
			table.setBest(childRef, childG)
			node := nodes.push(searchNode{parent: e.node, ref: childRef, move: packMove(m)})
			open.push(heapEntry{f: childG + h, g: childG, node: node})
			pushed++
			c.scratch.Undo(undo)
		}
	}
	if opts.PruneBound > 0 {
		// The open list emptied with every f >= PruneBound branch cut:
		// each cut carried a certificate that no completion through it
		// costs less than PruneBound, so the optimum is at least
		// PruneBound — a warm-started refinement has just proven the
		// cached incumbent optimal.
		if opts.PruneBound > lower {
			lower = opts.PruneBound
		}
		report()
		return Solution{}, fmt.Errorf("%w: no completion below bound %d", ErrBoundExhausted, opts.PruneBound)
	}
	report()
	return Solution{}, errors.New("solve: state space exhausted without completing (unreachable for feasible R)")
}

// symmetricForm prepares a symmetry-reduced search of p: when p's DAG
// has a nontrivial automorphism group it returns p relabeled into its
// canonical form, with its start state, and the symmetry (which maps
// canonical IDs back to p's). Searching the canonical form makes
// the chain, the representatives and so the whole search the same for
// every labeling of the instance (within the labeling search's budget).
// Otherwise it returns p and start unchanged and a nil symmetry. It
// polls stop between its steps and gives up (the nil-symmetry result)
// once stop reports true.
func symmetricForm(p Problem, start *pebble.State, stop func() bool) (Problem, *pebble.State, *symmetry) {
	if stop() {
		return p, start, nil
	}
	_, perm := canon.Canonical(p.G)
	if stop() {
		return p, start, nil
	}
	q := p
	q.G = p.G.Relabel(perm)
	sym := newSymmetry(q.G, start.PackedWords(), stop)
	if sym == nil {
		return p, start, nil
	}
	qstart, err := pebble.NewState(q.G, q.Model, q.R, q.Convention)
	if err != nil {
		panic("solve: canonical relabeling changed feasibility: " + err.Error())
	}
	sym.state = qstart.Clone()
	sym.back = make([]dag.NodeID, len(perm))
	for v, c := range perm {
		sym.back[c] = dag.NodeID(v)
	}
	return q, qstart, sym
}

// reconstruct walks the parent chain of goal node idx and returns the
// solution, verified against the caller's problem p. Under symmetry the
// search ran on p's canonical form, and each stored key is a
// representative σ_i(s_i) of the state s_i its stored move reached from
// the parent's key. A step of the caller's trace therefore applies the
// stored move through τ_{i-1}, the map from stored keys to the caller's
// node IDs: τ_0 = sym.back and τ_i = τ_{i-1}∘σ_i^-1. σ_i is re-derived by
// replaying the move on the parent's key and canonizing the result,
// exactly as the search did.
func reconstruct(p Problem, table *stateTable, nodes *chunkList[searchNode], idx int32, sym *symmetry) Solution {
	var chain []searchNode
	for nd := nodes.at(idx); nd.parent >= 0; nd = nodes.at(nd.parent) {
		chain = append(chain, nd)
	}
	moves := make([]pebble.Move, len(chain))
	var tau, scratch []dag.NodeID
	var key pebble.PackedKey
	if sym != nil {
		tau = append([]dag.NodeID(nil), sym.back...)
		scratch = make([]dag.NodeID, len(tau))
	}
	for i := range chain {
		nd := chain[len(chain)-1-i]
		m := nd.move.move()
		if sym == nil {
			moves[i] = m
			continue
		}
		sym.state.RestorePacked(table.key(nodes.at(nd.parent).ref))
		sym.state.MustApply(m)
		key = sym.state.AppendPacked(key[:0])
		sym.canonize(key)
		if !table.keyEqual(nd.ref, key) {
			panic("solve: internal error: symmetry replay diverged from the search")
		}
		moves[i] = pebble.Move{Kind: m.Kind, Node: tau[m.Node]}
		sym.compose(tau, scratch)
	}
	tr := &pebble.Trace{Model: p.Model, R: p.R, Convention: p.Convention, Moves: moves}
	return verify(p, tr)
}

// prunedMove applies dominance rules that cannot exclude every optimal
// solution. All rules are specific to the oneshot model, where a node's
// value exists only once: recomputation is impossible, so every node must
// be computed exactly once, and a deleted value can never return.
//
//   - Deleting a pebble from a sink makes the instance unwinnable (the
//     sink cannot be recomputed and a node holds only one pebble).
//   - Deleting a node that still has uncomputed successors likewise makes
//     those successors uncomputable.
//   - Storing a dead node (all successors computed, not a sink) is wasted
//     cost: Delete frees the red slot for free.
//
// In base and compcost the analogous prunes are NOT safe: deleting a red
// sink and recomputing it later (cost 0 or ε) can beat storing it
// (cost 1).
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
