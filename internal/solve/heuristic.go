package solve

import (
	"math/bits"
	"sort"

	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// Heuristic selects whether Exact searches under its lower bound.
type Heuristic int

const (
	// HeuristicAuto (the zero value) enables the admissible model-aware
	// lower bound: the mustCompute closure, forced transfers and, in
	// oneshot, the S-partition packing and arrival terms (see
	// spartition.go).
	HeuristicAuto Heuristic = iota
	// HeuristicOff disables the lower bound entirely: Exact degenerates
	// to plain uniform-cost search (Dijkstra), the original behavior.
	// Useful for ablations and as the reference in admissibility tests.
	HeuristicOff
)

// String names the heuristic mode.
func (h Heuristic) String() string {
	switch h {
	case HeuristicAuto:
		return "auto"
	case HeuristicOff:
		return "off"
	default:
		return "Heuristic(?)"
	}
}

// lowerBound computes an admissible, model-aware lower bound on the
// remaining cost of a pebbling position. It never overestimates in any
// of the four models, which makes A* return exactly the Dijkstra
// optimum while expanding far fewer states.
//
// The bound counts, per remaining completion:
//
//   - mustCompute: pebble-free nodes reachable backward from an
//     unsatisfied sink through pebble-free nodes. Each must receive at
//     least one Compute (a pebble can only appear on a bare node via
//     Compute, and its bare predecessors must in turn be computed to be
//     red at that moment). Charged ε each under compcost, 0 elsewhere.
//   - forced loads: blue predecessors of mustCompute nodes that can
//     never be recomputed — every blue node in oneshot (already
//     computed, or an initial source that is not computable), and blue
//     sources under SourcesStartBlue in every model. Each needs one
//     Load (cost 1). Distinct nodes, so the counts add.
//   - forced stores: under SinksMustBeBlue, every sink not currently
//     blue needs at least one Store (cost 1). Blue pebbles only arise
//     from Store, and these are on distinct, non-blue nodes, disjoint
//     from the forced-load set.
//   - oneshot certificates, on graphs of at most capMaxN nodes: the
//     S-partition packing of pair and capacity certificates adds to the
//     transfer terms above, and the arrival term replaces the transfer
//     total where it is larger (see spartition.go).
//
// estimate also detects dead positions — a mustCompute node that was
// already computed in oneshot, or a bare needed source under
// SourcesStartBlue — from which no completion exists at any cost.
//
// Every term is evaluated with word operations on node sets of w
// 64-bit words, read straight from the packed key (red, blue and
// computed words, see pebble.State.AppendPacked): the mustCompute
// closure grows a frontier by predecessor masks, and each certificate
// is a handful of precomputed masks tested against the key's words.
type lowerBound struct {
	p        Problem
	enabled  bool
	oneshot  bool
	scale    int64 // scaled cost of one transfer (EpsDenom under compcost, else 1)
	compCost int64 // scaled cost of one compute (1 under compcost, else 0)
	w        int   // words per node set; a packed key holds three

	// m holds the static node sets the bound shares with the move
	// generator: the sinks, the predecessor masks and the nodes that can
	// never be computed (the sources under SourcesStartBlue), a dead
	// position's witnesses once needed.
	m *nodeMasks
	// forced holds the nodes whose blue pebble forces a Load (see
	// loadForced).
	forced []uint64

	// Per-estimate scratch sets: the mustCompute closure, its frontier
	// and next layer, the union of the closure's predecessors, the
	// packing's charged values and a general-purpose union.
	mc, front, next, predU, charged, union []uint64

	cands []capCandidate
	pairs []pairConstraint

	// Arrival-term tables (see spartition.go): events marks the full
	// events (indeg = R-1), and arrive[v] = R - maxIn(v) for each, where
	// maxIn(v) is the largest static neighborhood overlap
	// |N[v] ∩ N[u]| over all other full events u. A nil events disables
	// the term.
	events []uint64
	arrive []int32
}

// capMaxN bounds the graph size for which the oneshot certificates and
// the predecessor and successor masks are precomputed (all take
// quadratic n·(n/64) words).
const capMaxN = 512

// capCandidate is one precomputed compute event w, a capacity certificate:
// slots = R - indeg(w) - 1 is the number of red slots not taken by
// preds(w) and w at the moment w is computed. shell masks the values
// that can compete for them: the predecessors of w's cone (desc(w)
// restricted to the initially-needed set) other than w and preds(w).
// anc masks the shell values that are strict ancestors of w.
type capCandidate struct {
	w          dag.NodeID
	slots      int
	shell, anc []uint64
}

func newLowerBound(p Problem, m *nodeMasks, mode Heuristic, startKey pebble.PackedKey) *lowerBound {
	lb := &lowerBound{
		p:       p,
		m:       m,
		enabled: mode != HeuristicOff,
		oneshot: p.Model.Kind == pebble.Oneshot,
		scale:   1,
		w:       m.w,
	}
	if p.Model.Kind == pebble.CompCost {
		lb.scale = int64(p.Model.EpsDenom)
		lb.compCost = 1
	}
	if !lb.enabled {
		return lb
	}
	// The forced set and the per-estimate scratch sets share one slab.
	w := lb.w
	slab := make([]uint64, 7*w)
	carve := func() []uint64 {
		s := slab[:w:w]
		slab = slab[w:]
		return s
	}
	lb.forced = carve()
	lb.mc, lb.front, lb.next, lb.predU, lb.charged, lb.union = carve(), carve(), carve(), carve(), carve(), carve()
	for v := 0; v < p.G.N(); v++ {
		if lb.loadForced(dag.NodeID(v)) {
			setBit(lb.forced, dag.NodeID(v))
		}
	}
	lb.buildCapCandidates(startKey)
	return lb
}

// estimate returns an admissible lower bound (in scaled cost units) on
// the remaining cost from the state packed in key, plus a dead flag
// reporting that the state cannot be completed at all. With the
// heuristic off it returns (0, false), keeping the search byte-for-byte
// Dijkstra. The state must be reachable from the start state, as every
// state a search generates is (see spartitionTerm). It leaves the
// state's mustCompute set in lb.mc.
func (lb *lowerBound) estimate(key pebble.PackedKey) (int64, bool) {
	if !lb.enabled {
		return 0, false
	}
	w := lb.w
	red, blue, comp := key[:w:w], key[w:2*w:2*w], key[2*w:3*w:3*w]
	mc, front, next, predU := lb.mc, lb.front, lb.next, lb.predU
	stores := 0
	for i := range mc {
		if lb.p.Convention.SinksMustBeBlue {
			stores += bits.OnesCount64(lb.m.sinks[i] &^ blue[i]) // one Store onto each
		}
		mc[i] = lb.m.sinks[i] &^ (red[i] | blue[i])
		front[i] = mc[i]
		predU[i] = 0
	}
	// Grow the closure one predecessor layer at a time: bare
	// predecessors join it, pebbled ones stay in predU.
	for grew := true; grew; {
		clear(next)
		for i, f := range front {
			for ; f != 0; f &= f - 1 {
				lb.m.orPreds(next, dag.NodeID(i*64+bits.TrailingZeros64(f)))
			}
		}
		grew = false
		for i := range next {
			predU[i] |= next[i]
			add := next[i] &^ (red[i] | blue[i] | mc[i])
			mc[i] |= add
			front[i] = add
			grew = grew || add != 0
		}
	}
	var musts, loads int
	for i := range mc {
		// A needed node that can never be computed (again) makes the
		// position unwinnable: recompute is forbidden in oneshot, and
		// sources are not computable under SourcesStartBlue.
		if mc[i]&lb.m.uncomputable[i] != 0 || (lb.oneshot && mc[i]&comp[i] != 0) {
			return 0, true
		}
		musts += bits.OnesCount64(mc[i])
		loads += bits.OnesCount64(predU[i] & blue[i] & lb.forced[i])
	}
	ht := lb.scale*int64(stores+loads) + lb.spartitionTerm(red, blue, comp)
	// The arrival term counts transfers globally, overlapping the
	// per-node terms above, so the two combine by max, not sum.
	if ta := lb.arrivalTerm(blue, comp); ta > ht {
		ht = ta
	}
	return lb.compCost*int64(musts) + ht, false
}

// buildCapCandidates precomputes the oneshot certificates on small
// graphs: the arrival tables, then for each needed node w the masks of
// its capacity certificate, keeping the candidates with the highest
// overflow potential, and last the pair certificates. startKey is the
// packed start state.
func (lb *lowerBound) buildCapCandidates(startKey pebble.PackedKey) {
	g := lb.p.G
	n := g.N()
	if !lb.oneshot || n == 0 || n > capMaxN {
		return
	}
	lb.buildArrivalTables()
	// needed0: nodes bare at the start that must be computed (the
	// initial mustCompute). Future mustCompute sets only shrink toward
	// subsets of it in oneshot, so restricting the cones to needed0
	// never overcounts.
	if _, dead := lb.estimate(startKey); dead {
		return
	}
	reach := pebble.NewReach(g)
	if reach == nil {
		return
	}
	w := lb.w
	needed0 := append([]uint64(nil), lb.mc...)

	type scored struct {
		w            dag.NodeID
		slots, score int
	}
	var all []scored
	// The scoring pass builds each shell in scratch; only the kept
	// candidates get masks of their own.
	shell := lb.next
	for v := dag.NodeID(0); int(v) < n; v++ {
		if !hasBit(needed0, v) {
			continue
		}
		slots := lb.p.R - g.InDegree(v) - 1
		lb.capShell(reach, needed0, v, shell)
		if score := onesCount(shell) - slots; score > 0 {
			all = append(all, scored{v, slots, score})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].w < all[j].w
	})
	// The packing pass walks every certificate per estimate, so a wider
	// pool buys little bound and costs the hot path (the bound's
	// strength on the R = Δ+1 instances comes from the pair and arrival
	// certificates).
	const maxCands = 16
	k := min(len(all), maxCands)
	slab := make([]uint64, 2*k*w)
	lb.cands = make([]capCandidate, k)
	for i := range lb.cands {
		cd := &lb.cands[i]
		cd.w, cd.slots = all[i].w, all[i].slots
		cd.shell, cd.anc = slab[:w:w], slab[w:2*w:2*w]
		slab = slab[2*w:]
		lb.capShell(reach, needed0, cd.w, cd.shell)
		reach.Anc(cd.w).AppendWords(cd.anc[:0])
		for j := range cd.anc {
			cd.anc[j] &= cd.shell[j]
		}
	}
	lb.buildPairConstraints(needed0)
}

// capShell writes capacity candidate v's shell: the predecessors of
// its cone, desc(v) ∩ needed0, other than v and preds(v).
func (lb *lowerBound) capShell(reach *pebble.Reach, needed0 []uint64, v dag.NodeID, shell []uint64) {
	cone := reach.Desc(v).AppendWords(lb.front[:0])
	clear(shell)
	for i := range cone {
		cone[i] &= needed0[i]
		for c := cone[i]; c != 0; c &= c - 1 {
			lb.m.orPreds(shell, dag.NodeID(i*64+bits.TrailingZeros64(c)))
		}
	}
	pv := lb.m.preds[int(v)*lb.w:]
	for i := range shell {
		shell[i] &^= pv[i]
	}
	shell[v>>6] &^= 1 << (uint(v) & 63)
}

// loadForced reports whether blue node u can only return to red via a
// Load. In oneshot every blue node qualifies: it either was computed
// already (recompute banned) or is an initial blue source under
// SourcesStartBlue (sources not computable). In the other models only
// the latter case forces a Load — a blue node could otherwise be
// recomputed for free.
func (lb *lowerBound) loadForced(u dag.NodeID) bool {
	if lb.oneshot {
		return true
	}
	return lb.p.Convention.SourcesStartBlue && lb.p.G.IsSource(u)
}

// setBit sets node v's bit in the words ws.
func setBit(ws []uint64, v dag.NodeID) {
	ws[v>>6] |= 1 << (uint(v) & 63)
}

// onesCount returns the number of set bits in ws.
func onesCount(ws []uint64) int {
	c := 0
	for _, x := range ws {
		c += bits.OnesCount64(x)
	}
	return c
}
