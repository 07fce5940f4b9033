package solve

import (
	"sort"

	"rbpebble/internal/bitset"
	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// The reference lower bound: the per-bit estimator that lowerBound
// replaced, kept verbatim as the oracle for
// FuzzLowerBoundMatchesReference. It walks a *pebble.State one bit at
// a time and keeps per-shell use masks; lowerBound evaluates the same
// certificates with word operations on the packed key. The admissibility
// arguments are in heuristic.go and spartition.go.

type refLowerBound struct {
	p        Problem
	enabled  bool
	oneshot  bool
	scale    int64 // scaled cost of one transfer (EpsDenom under compcost, else 1)
	compCost int64 // scaled cost of one compute (1 under compcost, else 0)
	sinks    []dag.NodeID

	mustCompute *bitset.Set
	counted     *bitset.Set // blue nodes already counted as forced loads
	stack       []int32
	cands       []refCapCandidate
	pairs       []refPairConstraint

	// S-partition scratch (see spartition.go): the charged-value set of
	// the packing pass.
	charged *bitset.Set

	// Arrival-term tables (see spartition.go): fullMaxIn[v] >= 0 marks v
	// as a full event (indeg = R-1) and holds the largest static
	// neighborhood overlap |N[v] ∩ N[u]| over all other full events u;
	// arrUnion is the event-neighborhood scratch set.
	fullMaxIn []int32
	arrUnion  *bitset.Set
}

// refCapUse is one potentially-live value u evaluated against a capacity
// candidate w: anc records whether u is a strict ancestor of w, and
// useMask holds u's successors inside desc(w) (statically restricted to
// the initially-needed set).
type refCapUse struct {
	u       int32
	anc     bool
	useMask *bitset.Set
}

// refCapCandidate is one precomputed compute event w, a capacity certificate:
// slots = R - indeg(w) - 1 is the number of red slots not taken by
// preds(w) and w at the moment w is computed, and shell lists the values
// that can compete for them.
type refCapCandidate struct {
	w     dag.NodeID
	slots int
	shell []refCapUse
}

func newRefLowerBound(p Problem, mode Heuristic, start *pebble.State) *refLowerBound {
	lb := &refLowerBound{
		p:       p,
		enabled: mode != HeuristicOff,
		oneshot: p.Model.Kind == pebble.Oneshot,
		scale:   1,
		sinks:   p.G.Sinks(),
	}
	if p.Model.Kind == pebble.CompCost {
		lb.scale = int64(p.Model.EpsDenom)
		lb.compCost = 1
	}
	if lb.enabled {
		lb.mustCompute = bitset.New(p.G.N())
		lb.counted = bitset.New(p.G.N())
		lb.charged = bitset.New(p.G.N())
		lb.buildCapCandidates(start)
	}
	return lb
}

// estimate returns an admissible lower bound (in scaled cost units) on
// the remaining cost from st, plus a dead flag reporting that st cannot
// be completed at all. With the heuristic off it returns (0, false),
// keeping the search byte-for-byte Dijkstra.
func (lb *refLowerBound) estimate(st *pebble.State) (int64, bool) {
	if !lb.enabled {
		return 0, false
	}
	g := lb.p.G
	conv := lb.p.Convention
	var ht, hc int64 // transfer and compute components
	lb.mustCompute.Reset()
	lb.counted.Reset()
	lb.stack = lb.stack[:0]
	for _, s := range lb.sinks {
		if conv.SinksMustBeBlue {
			if st.IsBlue(s) {
				continue
			}
			ht += lb.scale // one Store onto s is still needed
		} else if st.HasPebble(s) {
			continue
		}
		if !st.HasPebble(s) && !lb.mustCompute.Get(int(s)) {
			lb.mustCompute.Set(int(s))
			lb.stack = append(lb.stack, int32(s))
		}
	}
	for len(lb.stack) > 0 {
		v := dag.NodeID(lb.stack[len(lb.stack)-1])
		lb.stack = lb.stack[:len(lb.stack)-1]
		// v is bare (no pebble) and must be computed at least once more.
		if lb.oneshot && st.WasComputed(v) {
			return 0, true // recompute forbidden: unwinnable
		}
		if conv.SourcesStartBlue && g.IsSource(v) {
			return 0, true // sources are not computable: unwinnable
		}
		hc += lb.compCost
		for _, u := range g.Preds(v) {
			ui := int(u)
			if st.IsRed(u) {
				continue
			}
			if st.IsBlue(u) {
				if lb.loadForced(u) && !lb.counted.Get(ui) {
					lb.counted.Set(ui)
					ht += lb.scale
				}
				continue
			}
			if !lb.mustCompute.Get(ui) {
				lb.mustCompute.Set(ui)
				lb.stack = append(lb.stack, int32(u))
			}
		}
	}
	ht += lb.spartitionTerm(st)
	// The arrival term counts transfers globally, overlapping the
	// per-node terms above, so the two combine by max, not sum.
	if ta := lb.arrivalTerm(st); ta > ht {
		ht = ta
	}
	return hc + ht, false
}

// liveUse reports whether shell value cu is live for its candidate event
// in state st: the value must exist before the event's compute — it
// holds a pebble now, was computed already, or is an uncomputed ancestor
// of the event that must be computed before it — and must be consumed
// after the event (it has an uncomputed successor inside the event's
// descendant cone).
func (lb *refLowerBound) liveUse(st *pebble.State, cu *refCapUse) bool {
	u := dag.NodeID(cu.u)
	if !(st.HasPebble(u) || st.WasComputed(u) ||
		(cu.anc && lb.mustCompute.Get(int(cu.u)))) {
		return false
	}
	return cu.useMask.Intersects(lb.mustCompute)
}

// buildCapCandidates precomputes the oneshot certificates on small
// graphs: the arrival tables, then per-node ancestor/descendant masks
// and for each needed node w the shell of values adjacent to its
// descendant cone, keeping the capacity candidates with the highest
// overflow potential, and last the pair certificates.
func (lb *refLowerBound) buildCapCandidates(start *pebble.State) {
	g := lb.p.G
	n := g.N()
	if !lb.oneshot || n == 0 || n > capMaxN {
		return
	}
	lb.buildArrivalTables()
	// needed0: nodes bare at the start that must be computed (the
	// initial mustCompute). Future mustCompute sets only shrink toward
	// subsets of it in oneshot, so restricting use masks to needed0
	// never overcounts.
	if _, dead := lb.estimate(start); dead {
		return
	}
	needed0 := lb.mustCompute.Clone()

	reach := pebble.NewReach(g)
	if reach == nil {
		return
	}

	isPred := make([]bool, n)
	type scored struct {
		cand  refCapCandidate
		score int
	}
	var all []scored
	// The per-shell use masks persist in the candidates for the whole
	// search; carving them from an arena costs one allocation per slab
	// chunk instead of two per mask.
	arena := bitset.NewArena(n)
	seen := bitset.New(n)
	for wi := 0; wi < n; wi++ {
		if !needed0.Get(wi) {
			continue
		}
		w := dag.NodeID(wi)
		slots := lb.p.R - g.InDegree(w) - 1
		for _, u := range g.Preds(w) {
			isPred[u] = true
		}
		var shell []refCapUse
		seen.Reset()
		desc := reach.Desc(w)
		desc.ForEach(func(x int) bool {
			if !needed0.Get(x) {
				return true
			}
			for _, u := range g.Preds(dag.NodeID(x)) {
				ui := int(u)
				if ui == wi || isPred[ui] || seen.Get(ui) {
					continue
				}
				seen.Set(ui)
				use := arena.New()
				for _, s := range g.Succs(u) {
					if needed0.Get(int(s)) && desc.Get(int(s)) {
						use.Set(int(s))
					}
				}
				shell = append(shell, refCapUse{u: int32(ui), anc: reach.Anc(w).Get(ui), useMask: use})
			}
			return true
		})
		for _, u := range g.Preds(w) {
			isPred[u] = false
		}
		if score := len(shell) - slots; score > 0 {
			all = append(all, scored{refCapCandidate{w: w, slots: slots, shell: shell}, score})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].cand.w < all[j].cand.w
	})
	// The packing pass walks every certificate per estimate, so a wider
	// pool buys little bound and costs the hot path (the bound's
	// strength on the R = Δ+1 instances comes from the pair and arrival
	// certificates).
	const maxCands = 16
	for i := 0; i < len(all) && i < maxCands; i++ {
		lb.cands = append(lb.cands, all[i].cand)
	}
	lb.buildPairConstraints(needed0)
}

// loadForced reports whether blue node u can only return to red via a
// Load. In oneshot every blue node qualifies: it either was computed
// already (recompute banned) or is an initial blue source under
// SourcesStartBlue (sources not computable). In the other models only
// the latter case forces a Load — a blue node could otherwise be
// recomputed for free.
func (lb *refLowerBound) loadForced(u dag.NodeID) bool {
	if lb.oneshot {
		return true
	}
	return lb.p.Convention.SourcesStartBlue && lb.p.G.IsSource(u)
}

type refPairConstraint struct {
	u      int32
	v1, v2 int32
	cset   []int32 // u first, then the b12 ∪ b21 values
}

// buildPairConstraints precomputes the pair certificates (oneshot,
// small graphs — called from buildCapCandidates under the same gates). needed0 is the initially-needed set.
func (lb *refLowerBound) buildPairConstraints(needed0 *bitset.Set) {
	g := lb.p.G
	full := func(v dag.NodeID) bool { return g.InDegree(v) == lb.p.R-1 }
	for ui := 0; ui < g.N(); ui++ {
		u := dag.NodeID(ui)
		succs := g.Succs(u)
		for i := 0; i < len(succs); i++ {
			v1 := succs[i]
			if !needed0.Get(int(v1)) || !full(v1) {
				continue
			}
			for j := i + 1; j < len(succs); j++ {
				v2 := succs[j]
				if !needed0.Get(int(v2)) || !full(v2) {
					continue
				}
				// b-set for the order va-before-vb: preds(vb) outside
				// N[va]. Every b-value must itself be a full event that
				// does not consume u, or the eviction case breaks.
				addB := func(cset []int32, va, vb dag.NodeID) ([]int32, bool) {
					n := 0
					for _, x := range g.Preds(vb) {
						if x == u || x == va || hasPred(g, va, x) {
							continue
						}
						if !full(x) || hasPred(g, x, u) {
							return cset, false
						}
						n++
						cset = appendUnique(cset, int32(x))
					}
					return cset, n > 0
				}
				cset := []int32{int32(ui)}
				var ok bool
				if cset, ok = addB(cset, v1, v2); !ok {
					continue
				}
				if cset, ok = addB(cset, v2, v1); !ok {
					continue
				}
				lb.pairs = append(lb.pairs, refPairConstraint{
					u: int32(ui), v1: int32(v1), v2: int32(v2), cset: cset,
				})
				if len(lb.pairs) >= maxPairs {
					return
				}
			}
		}
	}
}

// buildArrivalTables precomputes the full-event marks and their static
// neighborhood overlaps (oneshot, small graphs).
func (lb *refLowerBound) buildArrivalTables() {
	g := lb.p.G
	n := g.N()
	lb.fullMaxIn = make([]int32, n)
	var events []dag.NodeID
	for v := 0; v < n; v++ {
		if g.InDegree(dag.NodeID(v)) == lb.p.R-1 {
			lb.fullMaxIn[v] = 0
			events = append(events, dag.NodeID(v))
		} else {
			lb.fullMaxIn[v] = -1
		}
	}
	if len(events) < 2 {
		lb.fullMaxIn = nil
		return
	}
	inN := make([]bool, n)
	for _, v := range events {
		for _, p := range g.Preds(v) {
			inN[p] = true
		}
		inN[v] = true
		for _, u := range events {
			if u == v {
				continue
			}
			ov := int32(0)
			if inN[u] {
				ov++
			}
			for _, p := range g.Preds(u) {
				if inN[p] {
					ov++
				}
			}
			if ov > lb.fullMaxIn[v] {
				lb.fullMaxIn[v] = ov
			}
		}
		for _, p := range g.Preds(v) {
			inN[p] = false
		}
		inN[v] = false
	}
	lb.arrUnion = bitset.New(n)
}

// arrivalTerm returns the arrival lower bound on remaining transfers
// from st in scaled cost units (0 when the tables are not built).
func (lb *refLowerBound) arrivalTerm(st *pebble.State) int64 {
	if lb.fullMaxIn == nil {
		return 0
	}
	g := lb.p.G
	sum, maxContrib, events := 0, 0, 0
	lb.arrUnion.Reset()
	lb.mustCompute.ForEach(func(vi int) bool {
		mi := lb.fullMaxIn[vi]
		if mi < 0 {
			return true
		}
		events++
		if c := lb.p.R - int(mi); c > 0 {
			sum += c
			if c > maxContrib {
				maxContrib = c
			}
		}
		lb.arrUnion.Set(vi)
		for _, p := range g.Preds(dag.NodeID(vi)) {
			lb.arrUnion.Set(int(p))
		}
		return true
	})
	if events < 2 {
		return 0
	}
	a := sum - maxContrib
	uncomputed, blue := 0, 0
	lb.arrUnion.ForEach(func(x int) bool {
		v := dag.NodeID(x)
		if !st.WasComputed(v) {
			uncomputed++
		}
		if st.IsBlue(v) {
			blue++
		}
		return true
	})
	loads := a - uncomputed
	if loads <= 0 {
		return 0
	}
	stores := loads - blue
	if stores < 0 {
		stores = 0
	}
	return lb.scale * int64(loads+stores)
}

// hasPred reports whether p is a direct predecessor of v.
func hasPred(g *dag.DAG, v, p dag.NodeID) bool {
	for _, x := range g.Preds(v) {
		if x == p {
			return true
		}
	}
	return false
}

func appendUnique(s []int32, x int32) []int32 {
	for _, y := range s {
		if y == x {
			return s
		}
	}
	return append(s, x)
}

// spartitionTerm returns the packed certificate charge for st in
// scaled cost units: pair constraints first (2 transfers each), then
// the capacity certificates on the residual uncharged values.
// Allocation-free: the charged set is reused scratch on the refLowerBound.
func (lb *refLowerBound) spartitionTerm(st *pebble.State) int64 {
	if len(lb.cands) == 0 && len(lb.pairs) == 0 {
		return 0
	}
	lb.charged.Reset()
	total := 0
	for pi := range lb.pairs {
		pc := &lb.pairs[pi]
		if !lb.mustCompute.Get(int(pc.v1)) || !lb.mustCompute.Get(int(pc.v2)) {
			continue // an event is gone: the separation argument is void
		}
		ok := true
		for ci, x := range pc.cset {
			if lb.charged.Get(int(x)) || (ci > 0 && st.IsBlue(dag.NodeID(x))) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		total += 2
		for _, x := range pc.cset {
			lb.charged.Set(int(x))
		}
	}
	// Disjoint charging of the capacity certificates on top of the pair
	// charges, processed in their static score order (the precompute
	// sorts by overflow potential, so the strongest shells charge
	// first): count each certificate over values not yet charged, add
	// its residual overflow, and charge its whole eligible live shell.
	for ci := range lb.cands {
		cd := &lb.cands[ci]
		if !lb.mustCompute.Get(int(cd.w)) {
			continue // event already computed (or not needed): it is gone
		}
		fl, curBlue := 0, 0
		for i := range cd.shell {
			cu := &cd.shell[i]
			if lb.charged.Get(int(cu.u)) || !lb.liveUse(st, cu) {
				continue
			}
			fl++
			if st.IsBlue(dag.NodeID(cu.u)) {
				curBlue++
			}
		}
		if b := fl - cd.slots - curBlue; b > 0 {
			total += 2 * b
			for i := range cd.shell {
				cu := &cd.shell[i]
				if !lb.charged.Get(int(cu.u)) && lb.liveUse(st, cu) {
					lb.charged.Set(int(cu.u))
				}
			}
		}
	}
	return lb.scale * int64(total)
}
