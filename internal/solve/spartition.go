package solve

import (
	"math/bits"

	"rbpebble/internal/dag"
)

// S-partition packing term.
//
// Hong and Kung's S-partition argument: the remaining computation
// decomposes into segments, and every segment whose dominator set
// overflows the red capacity forces its own transfers. This file packs
// two kinds of precomputed certificates, pair certificates
// (pairConstraint) and capacity certificates (capCandidate), on
// disjoint value sets, so that their transfers add.
//
// A capacity certificate is a pending compute event w with live shell
// L(w) (see spartitionTerm): values that must exist before w's compute
// and be consumed after it. At that moment preds(w) and w fill indeg(w)+1 red
// slots, so at most slots(w) = R - indeg(w) - 1 live values are red,
// and currently-blue ones can stay blue for free. In oneshot a value
// cannot be recreated, so every other live value needs a future Store
// and a future Load. Let X be the nodes that receive both in some fixed
// optimal completion from the current state; then
//
//	|X ∩ L(w)|  >=  |L(w)| - slots(w) - blue(L(w)).
//
// Certificates are processed in a fixed order (pair certificates, then
// capacity certificates in static score order) with a set C of charged
// values, and each counts only its eligible values L'(w) = L(w) \ C.
// Values in C can at worst take w's spare red slots or blue positions,
// which only makes MORE eligible values overflow, so
//
//	|X ∩ L'(w)|  >=  |L'(w)| - slots(w) - blue(L'(w)).
//
// All of L'(w) then joins C, so the regions L'(w_1), L'(w_2), ... are
// pairwise disjoint subsets of X, disjoint from every pair
// certificate's values too, and the charges add. Each node of X pays 2
// transfers, disjoint from the forced-load term (those nodes are blue
// now; live overflow values are not) and from the forced-store term
// (shell values have successors, sinks do not). Total: 2·scale·Σ
// overflow, plus 2·scale per pair certificate.
//
// The sum is not monotone in its certificates: an early one can charge
// values that a later, larger overflow would have counted, so it can
// fall below the best single capacity certificate's overflow taken
// alone. Both are admissible, so their max is too.

// pairConstraint is the second certificate family of the packing,
// aimed at the R = Δ+1 regime where every full-indegree compute
// event pins the entire red set. It is precomputed statically for a
// value u feeding two full events v1, v2 (indeg = R-1, both initially
// needed):
//
// In oneshot, consider any completion that still has to compute v1 and
// v2, say v1 first. At v1's moment the red set is exactly
// preds(v1) ∪ {v1}, so no value of b12 = preds(v2) \ (preds(v1) ∪ {v1})
// is red then; each must arrive at v2's moment by a later load or
// compute. Three cases, assuming (statically checked) every b-value has
// full indegree and is not a successor of u:
//
//   - some b-value is computed between the two events: its event's red
//     set excludes u, so u is evicted while its value is still needed
//     at v2 — u pays a future Store and a future Load (recompute is
//     banned in oneshot);
//   - some b-value arrives by load only: its value must already sit
//     blue, and since no b-value is currently blue (checked
//     dynamically), both its Store and its Load lie in the future;
//   - likewise when a b-value was computed before v1's moment: it
//     cannot be red at v1 (the red set is full), so it crosses through
//     blue — future Store + Load.
//
// Either way ≥2 future transfers land on cset = {u} ∪ b12 ∪ b21 (the
// b21 set covers the opposite order), and none of them coincides with a
// Load counted by the forced-load term: a Load pebble is consumed by
// the move (blue does not persist), so even a currently-blue u that is
// evicted between the two events needs a fresh future Store + Load
// beyond its counted first Load. The constraint is skipped when any
// b-value is currently blue (its Load is then the counted one and its
// Store lies in the past, so no extra transfer is guaranteed). Charged
// values have successors, so they are never sinks and stay disjoint
// from the forced-store term; disjointness among summed certificates is
// enforced by the shared charged set in spartitionTerm.
//
// Masks: cset is {u} ∪ b12 ∪ b21 and b is b12 ∪ b21, w words each.
type pairConstraint struct {
	v1, v2  dag.NodeID
	cset, b []uint64
}

// maxPairs caps the precomputed pair-constraint pool.
const maxPairs = 512

// buildPairConstraints precomputes the pair certificates (oneshot,
// small graphs — called from buildCapCandidates under the same gates).
// needed0 is the initially-needed set. The masks of all pairs share one
// slab.
func (lb *lowerBound) buildPairConstraints(needed0 []uint64) {
	g := lb.p.G
	w := lb.w
	full := func(v dag.NodeID) bool { return g.InDegree(v) == lb.p.R-1 }
	hasPred := func(v, p dag.NodeID) bool { return hasBit(lb.preds[int(v)*w:], p) }
	b := lb.union
	var slab []uint64
build:
	for ui := 0; ui < g.N(); ui++ {
		u := dag.NodeID(ui)
		succs := g.Succs(u)
		for i := 0; i < len(succs); i++ {
			v1 := succs[i]
			if !hasBit(needed0, v1) || !full(v1) {
				continue
			}
			for j := i + 1; j < len(succs); j++ {
				v2 := succs[j]
				if !hasBit(needed0, v2) || !full(v2) {
					continue
				}
				// b-set for the order va-before-vb: preds(vb) outside
				// N[va]. Every b-value must itself be a full event that
				// does not consume u, or the eviction case breaks.
				addB := func(va, vb dag.NodeID) bool {
					n := 0
					for _, x := range g.Preds(vb) {
						if x == u || x == va || hasPred(va, x) {
							continue
						}
						if !full(x) || hasPred(x, u) {
							return false
						}
						n++
						setBit(b, x)
					}
					return n > 0
				}
				clear(b)
				if !addB(v1, v2) || !addB(v2, v1) {
					continue
				}
				slab = append(slab, b...) // cset
				setBit(slab[len(slab)-w:], u)
				slab = append(slab, b...)
				lb.pairs = append(lb.pairs, pairConstraint{v1: v1, v2: v2})
				if len(lb.pairs) >= maxPairs {
					break build
				}
			}
		}
	}
	for i := range lb.pairs {
		pc := &lb.pairs[i]
		pc.cset, pc.b = slab[:w:w], slab[w:2*w:2*w]
		slab = slab[2*w:]
	}
}

// Arrival term. At a full event (a compute of a node with
// indeg = R-1), the red set is pinned to exactly N[v] = preds(v) ∪ {v}.
// Order the pending full events by their future compute times
// v_1, ..., v_k (other moves, and computes of non-needed full events,
// may fall in between). For i >= 2, no node of N[v_i] was red at the
// moment of the full event immediately preceding v_i unless it lies in
// that event's neighborhood, so at least R - maxIn(v_i) nodes must
// freshly ARRIVE — by a Compute or a Load — in the half-open interval
// ending at v_i's moment, where maxIn(v_i) is the largest static
// overlap |N[v_i] ∩ N[u]| over all full events u (a superset of the
// pending ones, so the allowance is conservative). The intervals are
// disjoint and the arriving nodes per event are distinct, so the
// arrival moves are all distinct. Summing and dropping the largest
// contribution (for the unknown first event, whose reds are
// unconstrained) gives A total arrivals. In oneshot each node computes
// at most once, so Computes cover at most U = #uncomputed nodes among
// the event neighborhoods; the remaining A - U arrivals are Loads, and
// each Load consumes a blue pebble, of which only B = #currently-blue
// neighborhood nodes exist without a future Store. Hence
//
//	future Loads  >= A - U
//	future Stores >= A - U - B.
//
// The term is admissible on its own but counts the same Loads the
// forced-load and packing terms count, so estimate combines it with
// them by max, never by sum.

// buildArrivalTables precomputes the full events and their arrival
// allowances R - maxIn(v) (oneshot, small graphs).
func (lb *lowerBound) buildArrivalTables() {
	g := lb.p.G
	n := g.N()
	fullMaxIn := make([]int32, n)
	var events []dag.NodeID
	for v := 0; v < n; v++ {
		if g.InDegree(dag.NodeID(v)) == lb.p.R-1 {
			fullMaxIn[v] = 0
			events = append(events, dag.NodeID(v))
		} else {
			fullMaxIn[v] = -1
		}
	}
	if len(events) < 2 {
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
			if ov > fullMaxIn[v] {
				fullMaxIn[v] = ov
			}
		}
		for _, p := range g.Preds(v) {
			inN[p] = false
		}
		inN[v] = false
	}
	lb.events = make([]uint64, lb.w)
	lb.arrive = fullMaxIn
	for _, v := range events {
		setBit(lb.events, v)
		lb.arrive[v] = int32(lb.p.R) - fullMaxIn[v]
	}
}

// arrivalTerm returns the arrival lower bound on remaining transfers
// in scaled cost units (0 when the tables are not built), given the
// state's blue and computed words; the pending full events are the
// ones in lb.mc.
func (lb *lowerBound) arrivalTerm(blue, comp []uint64) int64 {
	if lb.events == nil {
		return 0
	}
	sum, maxContrib, events := 0, 0, 0
	union := lb.union
	clear(union)
	for i, x := range lb.events {
		for x &= lb.mc[i]; x != 0; x &= x - 1 {
			v := dag.NodeID(i*64 + bits.TrailingZeros64(x))
			events++
			if c := int(lb.arrive[v]); c > 0 {
				sum += c
				if c > maxContrib {
					maxContrib = c
				}
			}
			setBit(union, v)
			lb.orPreds(union, v)
		}
	}
	if events < 2 {
		return 0
	}
	a := sum - maxContrib
	uncomputed, nblue := 0, 0
	for i, x := range union {
		uncomputed += bits.OnesCount64(x &^ comp[i])
		nblue += bits.OnesCount64(x & blue[i])
	}
	loads := a - uncomputed
	if loads <= 0 {
		return 0
	}
	stores := loads - nblue
	if stores < 0 {
		stores = 0
	}
	return lb.scale * int64(loads+stores)
}

// spartitionTerm returns the packed certificate charge in scaled cost
// units, given the state's red, blue and computed words and its
// mustCompute set in lb.mc: pair constraints first (2 transfers each),
// then the capacity certificates on the residual uncharged values.
//
// A shell value u is live for its candidate event w when it must exist
// before the event's compute — it holds a pebble now, was computed
// already, or is an uncomputed ancestor of the event that must be
// computed before it — and must be consumed after the event (it has an
// uncomputed successor inside the event's descendant cone). While w is
// pending (in mustCompute) in a position that is not dead, the second
// condition always holds and the first reduces to a mask: in oneshot a
// node is computed only after all its non-source ancestors, so with w
// uncomputed every node of its cone is uncomputed and bare, and the
// cone's path to its initially-unsatisfied sink keeps it in
// mustCompute — every shell value has a pending successor in the cone.
// A bare shell value is then a bare predecessor of a mustCompute node,
// hence in mustCompute itself, so "an uncomputed ancestor that must be
// computed" is any bare ancestor. The eligible live shell is therefore
//
//	(shell & (red | blue | computed) | anc) &^ charged.
//
// Allocation-free: the charged and union sets are reused scratch on the
// lowerBound.
func (lb *lowerBound) spartitionTerm(red, blue, comp []uint64) int64 {
	if len(lb.cands) == 0 && len(lb.pairs) == 0 {
		return 0
	}
	mc, charged := lb.mc, lb.charged
	clear(charged)
	total := 0
	for pi := range lb.pairs {
		pc := &lb.pairs[pi]
		if !hasBit(mc, pc.v1) || !hasBit(mc, pc.v2) {
			continue // an event is gone: the separation argument is void
		}
		ok := true
		for i := range charged {
			if pc.cset[i]&charged[i] != 0 || pc.b[i]&blue[i] != 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		total += 2
		for i := range charged {
			charged[i] |= pc.cset[i]
		}
	}
	// Disjoint charging of the capacity certificates on top of the pair
	// charges, processed in their static score order (the precompute
	// sorts by overflow potential, so the strongest shells charge
	// first): count each certificate over values not yet charged, add
	// its residual overflow, and charge its whole eligible live shell.
	live := lb.union
	for ci := range lb.cands {
		cd := &lb.cands[ci]
		if !hasBit(mc, cd.w) {
			continue // event already computed (or not needed): it is gone
		}
		over := -cd.slots // fl - slots - curBlue
		for i := range live {
			live[i] = (cd.shell[i]&(red[i]|blue[i]|comp[i]) | cd.anc[i]) &^ charged[i]
			over += bits.OnesCount64(live[i] &^ blue[i])
		}
		if over > 0 {
			total += 2 * over
			for i := range charged {
				charged[i] |= live[i]
			}
		}
	}
	return lb.scale * int64(total)
}
