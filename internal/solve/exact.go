package solve

import (
	"errors"
	"fmt"
	"time"

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
// an overflow heap for f >= 2^15), and each state is expanded straight
// from its key: moves are generated by word operations on the key and
// static node masks (see appendMoves), each child key is the parent's
// with at most three bits flipped, and the goal test is a mask test on
// the sinks. No pebble.State is built per expansion.
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

// searchCtx bundles what one search reads and reuses per expansion:
// the problem's scale, the move-generation switches, the static node
// masks, the lower bound and the scratch buffers. Everything is reused
// across expansions, so the steady-state loop allocates only when the
// table, heap or node log grow.
type searchCtx struct {
	p        Problem
	scale    int64 // scaled cost of a transfer
	compCost int64 // scaled cost of a compute

	// normal restricts move generation to the normal form (heuristic
	// on, pruning on), macro adds the dead-pebble quotient in oneshot,
	// and dominance applies the oneshot dominance rules to stores and
	// deletes (pruning on): see appendMoves.
	normal, macro, dominance bool
	oneshot                  bool

	masks        *nodeMasks
	lb           *lowerBound
	computeCands []uint64 // compute-candidate scratch words
	deadSet      []uint64 // the state's dead pebbles, under dominance
	moveBuf      []pebble.Move
	keyBuf       pebble.PackedKey // child key, or IDA*'s current key
}

func newSearchCtx(p Problem, opts ExactOptions, start *pebble.State) *searchCtx {
	prune := !opts.DisablePruning
	c := &searchCtx{
		p:       p,
		scale:   1,
		oneshot: p.Model.Kind == pebble.Oneshot,
		masks:   newNodeMasks(p),
		keyBuf:  start.AppendPacked(nil),
	}
	c.computeCands = make([]uint64, c.masks.w)
	c.deadSet = make([]uint64, c.masks.w)
	c.lb = newLowerBound(p, c.masks, opts.Heuristic, c.keyBuf)
	if p.Model.Kind == pebble.CompCost {
		c.scale = int64(p.Model.EpsDenom)
		c.compCost = 1
	}
	c.normal = prune && c.lb.enabled
	c.macro = c.normal && c.oneshot
	c.dominance = prune && c.oneshot
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
		if c.complete(key) {
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
		c.appendMoves(key)
		for _, m := range c.moveBuf {
			childG := e.g + c.moveCost(m)
			c.keyBuf = c.childKey(c.keyBuf, key, m)
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
					continue
				}
			} else {
				if table.best(childRef) <= childG {
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
				continue
			}
			table.setBest(childRef, childG)
			node := nodes.push(searchNode{parent: e.node, ref: childRef, move: packMove(m)})
			open.push(heapEntry{f: childG + h, g: childG, node: node})
			pushed++
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
