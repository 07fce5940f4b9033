package solve

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"rbpebble/internal/bitset"
	"rbpebble/internal/dag"
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

// ErrBoundExhausted is returned by the serial and async exact engines
// when ExactOptions.PruneBound is set and the search space is exhausted
// without finding any completion below the bound. It is a POSITIVE
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
	// MaxTableBytes caps the visited-state tables' backing-store
	// footprint (probe slots plus arena capacity, summed over parallel
	// shards; 0 = unlimited). Growth past the budget aborts the search
	// with ErrMemoryBudget, with Stats filled — including the certified
	// LowerBound — so callers harvest a partial certificate instead of
	// letting the search OOM the process. Enforcement is periodic (the
	// engines check at their cancellation gates), so the real peak can
	// overshoot the budget by one gate interval's growth.
	MaxTableBytes int64
	// DisablePruning turns off the safe dominance prunes (for the
	// ablation benchmark; the result is identical, only slower).
	DisablePruning bool
	// Heuristic selects the A* lower bound. The zero value
	// (HeuristicAuto) enables the admissible model-aware bound;
	// HeuristicOff reverts to plain Dijkstra. Either way the returned
	// cost is the exact optimum.
	Heuristic Heuristic
	// InitialLowerBound, if > 0, is a lower bound on the optimal scaled
	// cost that the CALLER has already certified (e.g. a cached interval
	// from an earlier deadline-limited solve of the same instance). The
	// serial and async engines seed their running frontier certificate
	// with it, so a canceled search never reports a LowerBound below
	// what was already proven, and IDA*-style callers can skip threshold
	// passes below it. Passing an uncertified value breaks the
	// LowerBound contract — the search itself stays correct, but the
	// reported bound would lie.
	InitialLowerBound int64
	// PruneBound, if > 0, is an exclusive upper bound on interesting
	// completions: the serial and async engines discard every generated
	// state whose f = g + h reaches it. With an admissible heuristic any
	// completion cheaper than PruneBound keeps all its prefix states
	// strictly below the bound, so the optimum is still found whenever
	// it is cheaper than PruneBound. Callers set it to incumbent+1
	// (warm-started refinement from a cached trace) so equal-cost optima
	// are still discovered and proven. In the async engine the bound is
	// enforced at proposal enqueue, at relaxation and at expansion, and
	// exhaustion under it yields the same ErrBoundExhausted certificate
	// as the serial engine.
	PruneBound int64
	// Parallel, when > 1, expands states with that many workers of the
	// asynchronous HDA* engine, with the state space sharded by state
	// hash (each worker owns its shard's open list and visited table;
	// see async.go). The proven optimal cost is identical to the
	// sequential search; only the witness trace may differ. Values <= 1
	// run the sequential search.
	Parallel int
	// Stats, when non-nil, receives search counters (states expanded,
	// pushed, distinct) after the solve, successful or not.
	Stats *ExactStats
	// Cancel, when non-nil, makes the search stop cooperatively once the
	// channel is closed: Exact returns ErrCanceled with Stats filled,
	// including the certified frontier lower bound harvested at
	// shutdown. The anytime orchestrator uses this to turn a deadline
	// into a [lower, upper] certificate instead of a wasted solve.
	Cancel <-chan struct{}
	// Progress, when non-nil, receives periodic search snapshots on a
	// time-based cadence (ProgressEvery) from every engine: the serial
	// loop samples at its periodic gate, and the async HDA* engine's
	// coordinator additionally fires whenever its certified global f-min
	// improves, so the streamed lower bound stays prompt. The async
	// bound is certified without any stop-and-drain: every worker
	// publishes an in-flight-aware floor (its heap minimum, lowered to
	// cover proposals it has generated but not yet deposited and batches
	// it is draining) and every mailbox already tracks the minimum
	// parent f of its pending batches, so the merged minimum never
	// overlooks work in flight — see async.go. The callback runs on a
	// solver goroutine and must be fast. With Progress nil the engines
	// build no snapshots and pay only a nil check at the gate.
	Progress func(ExactProgress)
	// ProgressEvery is the snapshot cadence (default ~100ms). Ignored
	// without a Progress listener.
	ProgressEvery time.Duration
}

// ExactProgress is one periodic snapshot of a running exact search:
// the live shape of the search, not just its counters. Field coverage
// varies by engine (Engine names which one filled it); fields an engine
// cannot observe are zero, and f-valued fields use -1 for "none".
type ExactProgress struct {
	// Expanded is the number of states expanded so far.
	Expanded int
	// LowerBound is the certified scaled lower bound on the optimal
	// cost proven so far (see ExactStats.LowerBound).
	LowerBound int64
	// Engine names the engine that built the snapshot: "astar",
	// "async-hda" or "ida-star".
	Engine string
	// Elapsed is the wall time since the search started.
	Elapsed time.Duration
	// Rate is the expansion rate (states/s) over the window since the
	// previous snapshot.
	Rate float64
	// Pushed is the number of open-list insertions so far.
	Pushed int
	// Distinct is the number of distinct states reached so far.
	Distinct int
	// OpenSize is the total open-list length (summed over shards).
	OpenSize int
	// FrontierF/FrontierG are the current cheapest open entry's f and g
	// (-1 when the frontier is empty or not observable).
	FrontierF int64
	FrontierG int64
	// OpenBuckets is the open queue's per-f histogram (serial engine
	// only; ascending f, capped at 32 levels).
	OpenBuckets []QueueBucket
	// TableBytes/TableLoad are the visited-table footprint and probe
	// load factor (summed/aggregated over shards).
	TableBytes int64
	TableLoad  float64
	// Workers is the per-worker breakdown (parallel engines only).
	Workers []WorkerProgress
	// SafraSent/SafraRecv are the async termination protocol's global
	// proposal counters (async engine only).
	SafraSent int64
	SafraRecv int64
	// Threshold and Pass are the current IDA* f-threshold and pass
	// number (IDA* only).
	Threshold int64
	Pass      int
}

// ExactStats reports search-effort counters from one Exact run.
type ExactStats struct {
	// Expanded is the number of states popped from the open list and
	// expanded (goal and stale pops excluded).
	Expanded int
	// Pushed is the number of open-list insertions (improvements).
	Pushed int
	// Distinct is the number of distinct states ever reached.
	Distinct int
	// LowerBound is the best certified lower bound (scaled cost units)
	// on the optimum when the search stopped: the optimum itself on
	// success, else the largest min-f observed over the open frontier.
	// Under an admissible heuristic every completion always has an open
	// entry with f no larger than its cost, so the min open f never
	// exceeds the true optimum — each observation is a certificate.
	LowerBound int64
	// TableBytes is the visited-state tables' backing-store footprint
	// (probe slots plus arena capacity, summed over parallel shards)
	// when the search stopped. Tables only grow within a run, so this is
	// the peak — the bench harness records it as peak_table_bytes.
	TableBytes int64
}

// searchNode records how a state was reached, for path reconstruction:
// the open-list push that created it, its table ref, and the move taken
// from the parent node. Nodes are append-only, so parent chains are
// immutable snapshots and cannot cycle.
type searchNode struct {
	parent int32 // index into nodes, -1 for the root
	ref    int32 // state ref in the table
	move   pebble.Move
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
// list is a typed binary heap, move generation is restricted to the
// red frontier, and candidate moves are applied and undone on a single
// scratch state instead of cloning.
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
	if opts.Parallel > 1 {
		return exactAsync(p, opts, start, maxStates)
	}
	return exactSerial(p, opts, start, maxStates)
}

// searchCtx bundles the scratch structures of one sequential search (or
// one parallel worker): everything is reused across expansions, so the
// steady-state loop allocates only when the table, heap or node log
// grow.
type searchCtx struct {
	p        Problem
	g        *dag.DAG
	scale    int64 // scaled cost of a transfer
	compCost int64 // scaled cost of a compute
	sources  []dag.NodeID
	prune    bool

	// macro enables the dead-pebble quotient (oneshot, heuristic on,
	// pruning on): see appendMoves.
	macro bool

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
		lb:      newLowerBound(p, opts.Heuristic, start),
		cand:    bitset.New(p.G.N()),
	}
	if p.Model.Kind == pebble.CompCost {
		c.scale = int64(p.Model.EpsDenom)
		c.compCost = 1
	}
	c.macro = c.prune && c.lb.enabled && p.Model.Kind == pebble.Oneshot
	return c
}

// cloneForWorker returns a searchCtx for a parallel worker: the
// read-only problem tables (including the lower bound's precomputed
// candidates) are shared, while the scratch state, sets and buffers are
// private.
func (c *searchCtx) cloneForWorker(start *pebble.State) *searchCtx {
	w := *c
	w.scratch = start.Clone()
	w.lb = c.lb.cloneScratch()
	w.cand = bitset.New(c.g.N())
	w.candBuf = nil
	w.moveBuf = nil
	w.keyBuf = nil
	return &w
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

// appendMoves appends every legal (and not dominance-pruned) move from
// st onto the shared move buffer (callers manage the buffer: the
// best-first loop truncates it first, the DFS keeps a stack of levels in
// it). key is st's packed encoding, whose words double as the red/blue
// iteration sets, so the generator only visits nodes adjacent to the
// current pebbles — compute candidates are the sources plus successors
// of red nodes; loads scan the blue set; stores and deletes scan the
// pebbled sets — instead of testing all n nodes against all four move
// kinds.
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

	// Compute: sources and successors of red nodes are the only nodes
	// whose inputs can all be red. Check finishes the legality test.
	if st.RedCount() < c.p.R {
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
		// Load: any blue node, while a red slot is free.
		for wi, wd := range blue {
			for wd != 0 {
				v := dag.NodeID(wi*64 + bits.TrailingZeros64(wd))
				wd &= wd - 1
				c.consider(st, pebble.Move{Kind: pebble.Load, Node: v})
			}
		}
	}
	// Store: any red node.
	for wi, wd := range red {
		for wd != 0 {
			v := dag.NodeID(wi*64 + bits.TrailingZeros64(wd))
			wd &= wd - 1
			c.consider(st, pebble.Move{Kind: pebble.Store, Node: v})
		}
	}
	// Delete: any pebbled node (banned wholesale in nodel).
	if c.p.Model.Kind != pebble.NoDel {
		for wi := 0; wi < w; wi++ {
			wd := red[wi] | blue[wi]
			for wd != 0 {
				v := dag.NodeID(wi*64 + bits.TrailingZeros64(wd))
				wd &= wd - 1
				c.consider(st, pebble.Move{Kind: pebble.Delete, Node: v})
			}
		}
	}
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

// exactSerial is the sequential A* loop.
func exactSerial(p Problem, opts ExactOptions, start *pebble.State, maxStates int) (Solution, error) {
	c := newSearchCtx(p, opts, start)
	// The table's second payload word caches the (state-only) heuristic
	// value per ref, so each distinct state is estimated once no matter
	// how often it is reached — and the estimate lives on the same arena
	// row as the cost and key it belongs to.
	table := newStateTable(start.PackedWords(), payloadWithH, 1024)
	var open bucketQueue
	var nodes []searchNode

	expanded, pushed := 0, 0
	// Certified lower bound: running max of min open f, seeded from the
	// caller's already-certified floor (warm start) when one is given.
	lower := opts.InitialLowerBound
	guard := newSearchGuard(opts.Cancel, opts.MaxTableBytes, opts.Progress, opts.ProgressEvery)
	report := func() {
		if opts.Stats != nil {
			*opts.Stats = ExactStats{Expanded: expanded, Pushed: pushed, Distinct: table.count(), LowerBound: lower, TableBytes: table.bytes()}
		}
	}

	rootKey := start.AppendPacked(nil)
	rootRef, _ := table.lookupOrAdd(rootKey, hashKey(rootKey))
	table.setBest(rootRef, 0)
	nodes = append(nodes, searchNode{parent: -1, ref: rootRef})
	h0, dead := c.lb.estimate(start)
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
		nd := nodes[e.node]
		if e.g > table.best(nd.ref) {
			continue // stale entry
		}
		key := table.key(nd.ref)
		c.scratch.RestorePacked(key)
		if c.scratch.Complete() {
			lower = e.g // proven optimal
			report()
			return reconstruct(p, nodes, e.node), nil
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
				guard.emit(singleProgress(guard.sampler, expanded, pushed, lower, table, &open))
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
			childRef, isNew := table.lookupOrAdd(c.keyBuf, hashKey(c.keyBuf))
			var h int64
			if isNew {
				var dead bool
				h, dead = c.lb.estimate(c.scratch)
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
			nodes = append(nodes, searchNode{parent: e.node, ref: childRef, move: m})
			open.push(heapEntry{f: childG + h, g: childG, node: int32(len(nodes) - 1)})
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

// reconstruct walks the parent chain of goal node idx and returns the
// verified solution.
func reconstruct(p Problem, nodes []searchNode, idx int32) Solution {
	var rev []pebble.Move
	for i := idx; nodes[i].parent >= 0; i = nodes[i].parent {
		rev = append(rev, nodes[i].move)
	}
	moves := make([]pebble.Move, len(rev))
	for i := range rev {
		moves[i] = rev[len(rev)-1-i]
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
