package solve

import (
	"errors"
	"fmt"
	"time"

	"rbpebble/internal/pebble"
)

// ExactDFSOptions configures the depth-first exact solver.
type ExactDFSOptions struct {
	// MaxVisits caps the number of state expansions (0 = 16,000,000),
	// cumulative across IDA* iterations. Note the semantics: expansions
	// — states whose successors are generated — matching the best-first
	// solver's Expanded counter.
	MaxVisits int
	// MaxTableBytes caps the memo and transposition tables' combined
	// backing-store footprint (0 = unlimited). Growth past the budget
	// aborts the search with ErrMemoryBudget, with Stats filled — the
	// incumbent and certified LowerBound survive as a partial
	// certificate. Checked at the periodic expansion gate, so the real
	// peak can overshoot by one gate interval's growth.
	MaxTableBytes int64
	// Stats, when non-nil, receives search counters after the solve —
	// also on failure, so a visit-limited run still reports how far it
	// got and what bounds it had proven.
	Stats *ExactDFSStats
	// Cancel, when non-nil, makes the search stop cooperatively once
	// the channel is closed: ExactDFS returns ErrCanceled with Stats
	// filled, including the incumbent's cost and the certified bound.
	Cancel <-chan struct{}
	// Progress, when non-nil, receives search snapshots with the same
	// contract as ExactOptions.Progress: one after every completed IDA*
	// threshold pass (once the threshold has advanced; its LowerBound
	// ratchets up as passes complete), and mid-pass ones on a time-based
	// cadence (ProgressEvery), since passes can run for seconds. Visits
	// play the expansion counter and the transposition cache the state
	// table. Runs on the solver goroutine; must be fast.
	Progress func(ExactProgress)
	// ProgressEvery is the mid-pass snapshot cadence (default ~100ms).
	// Ignored without a Progress listener.
	ProgressEvery time.Duration
}

// ExactDFSStats reports search effort and bound progress from one
// ExactDFS run. It is filled on success and on ErrVisitLimit.
type ExactDFSStats struct {
	// Visits is the number of state expansions (cumulative across IDA*
	// iterations; see ExactDFSOptions.MaxVisits for the semantics).
	Visits int
	// Iterations is the number of IDA* threshold passes.
	Iterations int
	// Threshold is the last IDA* f-threshold searched.
	Threshold int64
	// Incumbent is the best achievable scaled cost known when the
	// search stopped (the optimum on success; an upper bound on
	// ErrVisitLimit).
	Incumbent int64
	// LowerBound is the best certified lower bound on the optimal
	// scaled cost when the search stopped: the optimum itself on
	// success, else the root heuristic estimate raised by every
	// completed IDA* pass (a pass at threshold T that finds nothing
	// cheaper proves no completion costs less than the smallest f it
	// pruned).
	LowerBound int64
	// TableBytes is the memo and heuristic tables' combined
	// backing-store footprint when the search stopped (peak: the tables
	// keep their capacity across IDA* passes).
	TableBytes int64
	// CacheStates is the learned-bound transposition cache's distinct
	// state count (the hcache persists across IDA* passes).
	CacheStates int
	// MemoStates is the per-pass memo's distinct state count (reset at
	// every threshold pass).
	MemoStates int
}

// ErrVisitLimit is returned when ExactDFS exceeds its visit budget.
// The error carries the stats snapshot inline; ExactDFSOptions.Stats
// receives the same numbers.
var ErrVisitLimit = errors.New("solve: DFS visit limit exceeded")

// ExactDFS finds a provably minimum-cost pebbling by depth-first search
// with per-state memoization: iterative-deepening A* on f = g+h. It
// shares the admissible lower bound with the best-first solver, and
// unlike plain branch and bound its pruning does not depend on
// stumbling onto a good incumbent early. It is an independent second
// implementation of the exact optimum (the first being the best-first
// search in Exact) — the two cross-validate each other in the tests.
//
// The recursion shares the best-first solver's machinery: moves come
// from the same generator, which reads the packed state encoding, each
// one is applied and undone on the single live state (no cloning), the
// memo table is keyed on the packed encoding, and the admissible lower
// bound prunes branches.
//
// Supported models: oneshot and nodel, whose optimal pebblings have
// O(Δ·n) steps (Lemma 1), giving the recursion a sound depth bound. The
// base model admits no polynomial step bound; compcost admits one but
// its ε-granular costs make bound pruning ineffective — use Exact
// (best-first) for those models.
func ExactDFS(p Problem, opts ExactDFSOptions) (Solution, error) {
	if p.Model.Kind != pebble.Oneshot && p.Model.Kind != pebble.NoDel {
		return Solution{}, fmt.Errorf("solve: ExactDFS supports oneshot and nodel only, got %s", p.Model)
	}
	maxVisits := opts.MaxVisits
	if maxVisits == 0 {
		maxVisits = 16_000_000
	}
	start, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
	if err != nil {
		return Solution{}, err
	}

	// Seed the incumbent with an achievable solution so pruning bites
	// from the first pass.
	seed, err := TopoBelady(p)
	if err != nil {
		return Solution{}, err
	}

	d := &dfsSearch{
		p:         p,
		c:         newSearchCtx(p, ExactOptions{}, start),
		st:        start,
		memo:      newStateTable(start.PackedWords(), payloadBestOnly, 1024),
		hcache:    newStateTable(start.PackedWords(), payloadBestOnly, 1024),
		maxVisits: maxVisits,
		guard:     newSearchGuard(opts.Cancel, opts.MaxTableBytes, opts.Progress, opts.ProgressEvery),
		bound:     seed.Result.Cost.Scaled(p.Model) + 1, // strict improvement wanted
		bestMoves: seed.Trace.Moves,
		maxDepth:  dfsMaxDepth(p),
	}
	err = d.idaStar()
	if opts.Stats != nil {
		*opts.Stats = d.stats()
	}
	if err != nil {
		return Solution{}, err
	}
	if d.bestMoves == nil {
		return Solution{}, errors.New("solve: DFS found no complete pebbling (infeasible instance?)")
	}
	tr := &pebble.Trace{Model: p.Model, R: p.R, Convention: p.Convention, Moves: d.bestMoves}
	return verify(p, tr), nil
}

// dfsMaxDepth returns the recursion depth cap. It must be generous
// enough that the cap never cuts a prefix of any solution cheaper than
// the universal (2Δ+1)·n upper bound — otherwise the memoized and
// learned bounds would rest on depth-truncated subtrees. In oneshot and
// nodel, any pebbling prefix of cost c has at most 2n + 2c steps
// (computes <= n + stores, deletes <= placements <= n + loads, and
// loads + stores = c), so with c < (2Δ+1)n every relevant prefix stays
// below (4Δ+4)·n + 2n steps; the cap sits above both that and the
// Lemma 1 bound.
func dfsMaxDepth(p Problem) int {
	n := p.G.N()
	delta := p.G.MaxInDegree()
	if delta == 0 {
		delta = 1
	}
	a := pebble.StepUpperBoundFactor(p.Model)*delta*n + n + 8
	if b := (4*delta+6)*n + 8; b > a {
		return b
	}
	return a
}

// dfsSearch carries the shared state of one ExactDFS run across
// iterations and recursion levels.
type dfsSearch struct {
	p         Problem
	c         *searchCtx
	st        *pebble.State // mutated in place by apply/undo
	memo      *stateTable   // best entry cost per state, valid for one pass
	hcache    *stateTable   // heuristic per state (best(ref) = h; dfsDeadH = dead), never reset
	maxVisits int
	guard     searchGuard // cancel, table budget and Progress snapshot cadence
	maxDepth  int

	bound     int64 // best achievable scaled cost known (incumbent, exclusive upper bound on improvements)
	bestMoves []pebble.Move
	moves     []pebble.Move // live move prefix of the recursion

	threshold  int64 // current IDA* f-threshold
	minExceed  int64 // smallest f seen above the threshold this pass
	lower      int64 // certified lower bound (root estimate, raised per completed pass)
	visits     int
	iterations int
	limitErr   error
}

// stats snapshots the search counters and bounds.
func (d *dfsSearch) stats() ExactDFSStats {
	return ExactDFSStats{
		Visits:      d.visits,
		Iterations:  d.iterations,
		Threshold:   d.threshold,
		Incumbent:   d.bound,
		LowerBound:  d.lower,
		TableBytes:  d.memo.bytes() + d.hcache.bytes(),
		CacheStates: d.hcache.count(),
		MemoStates:  d.memo.count(),
	}
}

// searchProgress builds the uniform snapshot: visits play the
// expansion counter, the transposition cache plays the state table, and
// the threshold schedule stands in for the frontier.
func (d *dfsSearch) searchProgress() ExactProgress {
	elapsedMS, rate := d.guard.sampler.tick(d.visits)
	return ExactProgress{
		Engine:      "ida-star",
		ElapsedMS:   elapsedMS,
		Expanded:    int64(d.visits),
		Rate:        rate,
		Distinct:    int64(d.hcache.count()),
		LowerBound:  d.lower,
		FrontierF:   -1,
		FrontierG:   -1,
		TableStates: int64(d.hcache.count()),
		TableBytes:  d.memo.bytes() + d.hcache.bytes(),
		TableLoad:   d.hcache.load(),
		Threshold:   d.threshold,
		Pass:        d.iterations,
	}
}

// visitLimited counts one expansion, registers budget exhaustion or
// cancellation (once) and reports it. Visits count states actually
// expanded — memo- and bound-pruned re-entries are free, matching what
// the best-first solver's Expanded counter means.
func (d *dfsSearch) visitLimited() bool {
	d.visits++
	if d.visits&255 == 0 {
		at := searchPoint{n: int64(d.visits), unit: "visits", incumbent: d.bound, lower: d.lower}
		if err := d.guard.check(d.memo.bytes()+d.hcache.bytes(), at); err != nil {
			if d.limitErr == nil {
				d.limitErr = err
			}
			return true
		}
		if d.guard.due() {
			d.guard.emit(d.searchProgress())
		}
	}
	if d.visits <= d.maxVisits {
		return false
	}
	if d.limitErr == nil {
		d.limitErr = fmt.Errorf("%w: %d visits (best incumbent %d, iteration %d)",
			ErrVisitLimit, d.maxVisits, d.bound, d.iterations)
	}
	return true
}

// dfsDeadH marks a dead state in the heuristic cache. Large (not
// MaxInt64, so cost + dfsDeadH cannot overflow) and above every real
// bound, it prunes like any other remaining-cost lower bound.
const dfsDeadH = int64(1) << 40

// cachedH returns the heuristic-cache ref and value for the state
// encoded in c.keyBuf (estimating on first sight). The cache persists
// across IDA* passes — repeated passes re-estimate nothing — and the
// value is the EFFECTIVE remaining-cost lower bound: the static
// heuristic, raised by learned bounds from exhausted subtrees (see
// recIDA), which is what keeps iterative deepening from re-walking
// transpositions it has already refuted.
func (d *dfsSearch) cachedH(hash uint64) (int32, int64) {
	ref, isNew := d.hcache.lookupOrAdd(d.c.keyBuf, hash)
	if !isNew {
		return ref, d.hcache.best(ref)
	}
	h, dead := d.c.lb.estimate(d.c.keyBuf)
	if dead {
		h = dfsDeadH
	}
	d.hcache.setBest(ref, h)
	return ref, h
}

// idaStar runs iterative-deepening A*: depth-first passes pruned at
// f = cost + h > threshold, with the threshold raised to the smallest
// exceeding f after each pass. The memo prunes re-entries at a
// not-better cost within one pass (and is reset between passes, since a
// higher threshold re-opens states). A pass that ends with the
// incumbent at or below its threshold proves the incumbent optimal:
// along any cheaper completion every prefix state has f at most its
// final cost, so the pass would have reached it.
func (d *dfsSearch) idaStar() error {
	d.c.keyBuf = d.st.AppendPacked(d.c.keyBuf[:0])
	h0, dead := d.c.lb.estimate(d.c.keyBuf)
	if dead {
		return ErrInfeasible
	}
	d.threshold = h0
	d.lower = h0
	// The threshold grows by a doubling gap (capped) rather than to the
	// minimal exceeding f. Minimal steps are safe but hopeless on wide
	// searches: the per-pass cost grows roughly geometrically in f, so
	// Σ cum(f) over every f-level can dwarf the final pass several-fold
	// (measured >10M expansions on fft(3) R=3 against 1.3M states at
	// the optimum's level). Jumping is sound — a pass at threshold T
	// explores every prefix with f <= T, so an incumbent at or below T
	// is still proven optimal — and overshooting the optimum is mild:
	// once the pass finds a goal, the incumbent prunes the remainder.
	gap := int64(1)
	const maxGap = 8
	for {
		d.iterations++
		d.memo.reset()
		d.minExceed = costUnreached
		d.recIDA()
		if d.limitErr != nil {
			return d.limitErr
		}
		if d.bound <= d.threshold {
			d.lower = d.bound // incumbent proven optimal
			return nil
		}
		if d.minExceed >= d.bound {
			// Every unexplored branch already costs at least the
			// incumbent: it is optimal (covers minExceed == unreached,
			// the exhausted case).
			d.lower = d.bound
			return nil
		}
		// The completed pass proves no completion costs less than
		// minExceed: every cheaper one would have a prefix with
		// f <= threshold all the way to its goal, so the pass would
		// have reached it.
		if d.minExceed > d.lower {
			d.lower = d.minExceed
		}
		next := d.threshold + gap*int64(d.c.scale)
		if d.minExceed > next {
			next = d.minExceed
		}
		d.threshold = next
		if gap < maxGap {
			gap *= 2
		}
		if d.guard.emit != nil {
			d.guard.emit(d.searchProgress())
		}
	}
}

// recIDA is one IDA* recursion step. Returns false on budget
// exhaustion.
func (d *dfsSearch) recIDA() bool {
	if d.limitErr != nil {
		return false
	}
	st, c := d.st, d.c
	cost := st.Cost().Scaled(d.p.Model)
	if cost >= d.bound {
		return true
	}
	if st.Complete() {
		// A new incumbent: the live move prefix completes the pebbling.
		d.bound = cost
		d.bestMoves = append([]pebble.Move(nil), d.moves...)
		return true
	}
	if st.Steps() >= d.maxDepth {
		return true
	}
	c.keyBuf = st.AppendPacked(c.keyBuf[:0])
	hash := hashKey(c.keyBuf)
	ref, _ := d.memo.lookupOrAdd(c.keyBuf, hash)
	if d.memo.best(ref) <= cost {
		return true // reached at least as cheaply this pass
	}
	href, h := d.cachedH(hash)
	f := cost + h
	if f >= d.bound {
		return true
	}
	if f > d.threshold {
		if f < d.minExceed {
			d.minExceed = f
		}
		return true
	}
	if d.visitLimited() {
		return false
	}
	d.memo.setBest(ref, cost)

	// Generate this level's moves above the caller's live prefix;
	// deeper levels append beyond end and truncate back. Zero-cost
	// moves recurse first (see orderMovesForDFS): reaching a state
	// through a cheap prefix the first time avoids the re-expansion
	// cascade when a cheaper path finds it later.
	base := len(c.moveBuf)
	c.appendMoves(c.keyBuf)
	orderMovesForDFS(c, c.moveBuf[base:])
	end := len(c.moveBuf)
	ok := true
	for i := base; i < end; i++ {
		m := c.moveBuf[i]
		undo, err := st.ApplyForUndo(m)
		if err != nil {
			panic("solve: appendMoves emitted illegal move: " + err.Error())
		}
		d.moves = append(d.moves, m)
		ok = d.recIDA()
		d.moves = d.moves[:len(d.moves)-1]
		st.Undo(undo)
		if !ok {
			break
		}
	}
	c.moveBuf = c.moveBuf[:base]
	if ok {
		// Subtree exhausted: every completion from this state now
		// provably costs at least min(threshold+1, incumbent). Raise the
		// state's effective bound so later entries — this pass at higher
		// cost, or any future pass — prune without re-walking the
		// subtree. This transposition learning is what tames IDA*'s
		// re-expansion cascades on graphs with many equal-state paths.
		learned := d.threshold + 1
		if d.bound < learned {
			learned = d.bound
		}
		if rem := learned - cost; rem > d.hcache.best(href) {
			d.hcache.setBest(href, rem)
		}
	}
	return ok
}

// orderMovesForDFS stably partitions a generated move segment so that
// zero-cost moves (computes, and deletes outside compcost) come first.
// Depth-first search first reaches most states through the prefix order
// it happens to try; putting free moves first makes that first reach
// near-cheapest, which slashes the re-expansion cascades triggered when
// a state is later reached more cheaply.
func orderMovesForDFS(c *searchCtx, moves []pebble.Move) {
	w := 0
	for i, m := range moves {
		if c.moveCost(m) == 0 {
			if i != w {
				moves[i], moves[w] = moves[w], moves[i]
			}
			w++
		}
	}
}
