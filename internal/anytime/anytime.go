// Package anytime orchestrates the library's solvers under a deadline:
// it runs the cheap upper-bound heuristics (topological+Belady, the
// greedy rules) and then the exact refinement engine (symmetry-reduced
// serial A*), tracking the best incumbent trace and the
// best certified lower bound the whole time. When the budget runs out
// it returns the certified [lower, upper] interval and the incumbent's
// verified trace instead of an error — the contract a serving system
// needs on instances where the paper's hardness results make unbounded
// exact solves impossible.
//
// The certificate chain:
//
//   - the root S-partition heuristic gives an instant admissible lower
//     bound before any search runs (solve.RootLowerBound);
//   - the A* engine raises it continuously (the min f on its open
//     frontier never exceeds the optimum) and harvests a final frontier
//     bound when canceled;
//   - every upper bound is a replay-verified trace.
//
// The upper and lower streams meet exactly when the engine proves
// optimality; a Result with Gap() == 0 carries a proven optimum.
package anytime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// Options configures one anytime solve.
type Options struct {
	// Budget is the wall-clock budget. Zero means no budget: the solve
	// runs until an exact engine proves optimality (or ctx fires).
	Budget time.Duration
	// MaxTableBytes caps the refinement engine's table footprint
	// (solve.ExactOptions.MaxTableBytes; 0 = unlimited). An engine
	// tripping the budget aborts with solve.ErrMemoryBudget, its
	// certified bounds are harvested into the interval like any other
	// early stop, and Result.MemoryLimited is set — the node-wide
	// memory governor rests on this.
	MaxTableBytes int64
	// OnProgress, when non-nil, receives a snapshot every time the
	// certified interval tightens (new incumbent or higher lower
	// bound). Each snapshot strictly improves at least one end of the
	// previously delivered interval and never regresses either end.
	// Called on Solve's goroutine; must be fast.
	OnProgress func(Snapshot)
	// OnSearch, when non-nil, receives the exact engine's live search
	// snapshots (expansion rate, frontier shape, table occupancy —
	// see obs.SearchSnapshot) on a time-based cadence during phase 2,
	// with strictly increasing Seq. Called on Solve's goroutine; must
	// be fast.
	OnSearch func(obs.SearchSnapshot)
	// Warm, when non-nil, resumes refinement from a previously certified
	// interval of the SAME instance (e.g. a cached deadline-limited
	// result): the cached incumbent is replay-verified and installed
	// before any heuristic runs, its cost seeds the engine's PruneBound,
	// and the cached lower bound seeds its InitialLowerBound — so a
	// repeated hard instance keeps the previous request's interval
	// instead of starting over.
	Warm *WarmStart

	// snapshotEvery is the engine's search-snapshot cadence (zero =
	// the engine's ~100ms default); a test seam.
	snapshotEvery time.Duration
}

// WarmStart carries a previously certified interval into a new solve.
// The caller vouches for LowerScaled (it must come from a certificate
// chain on the same instance); Moves is re-verified here, so a corrupt
// trace degrades to a cold start rather than an invalid answer.
type WarmStart struct {
	// Moves is the cached incumbent trace in this instance's node IDs
	// (the service solves every instance in canonical numbering, so a
	// trace from its canonical cache needs no translation). Empty means
	// no incumbent, only a lower bound.
	Moves []pebble.Move
	// LowerScaled is the certified scaled lower bound (0 = none).
	LowerScaled int64
	// Source names where the warm data came from, for provenance
	// ("cache:astar" etc.); empty defaults to "warm-start".
	Source string
}

// Snapshot is one point of the anytime convergence curve.
type Snapshot struct {
	// Elapsed is the time since Solve started.
	Elapsed time.Duration
	// UpperScaled and LowerScaled are the certified interval ends in
	// scaled cost units (see pebble.Cost.Scaled). UpperScaled is
	// math.MaxInt64 until a first incumbent exists.
	UpperScaled, LowerScaled int64
	// Source names what produced this tightening ("root-bound",
	// "topo-belady", "greedy/most-red-inputs", "astar", ...).
	Source string
}

// Result is a certified anytime answer.
type Result struct {
	// Solution is the best incumbent: a replay-verified trace.
	Solution solve.Solution
	// UpperScaled is the incumbent's scaled cost; LowerScaled the best
	// certified scaled lower bound on the optimum.
	UpperScaled, LowerScaled int64
	// Upper and Lower are the same interval in model cost units.
	Upper, Lower float64
	// Optimal reports that the interval closed: the incumbent is a
	// proven optimum.
	Optimal bool
	// Source names the strategy that produced the incumbent.
	Source string
	// Elapsed is the wall-clock time the solve used.
	Elapsed time.Duration
	// Expanded is the refinement engine's search effort (best-first
	// expansions).
	Expanded int
	// Visits is always 0: no depth-first engine runs in an anytime
	// solve. It stays for callers that still read it.
	Visits int
	// TableBytes is the engine's peak visited-table footprint — the
	// memory half of the per-solve telemetry record.
	TableBytes int64
	// PeakFrontier and PeakRate are the largest open-frontier size and
	// expansion rate (states/s) observed across the solve's search
	// snapshots (zero when phase 2 never ran or finished between
	// samples) — the SolveRecord fields the portfolio scheduler wants.
	PeakFrontier int64
	PeakRate     float64
	// MemoryLimited reports that the refinement engine aborted on
	// Options.MaxTableBytes (solve.ErrMemoryBudget): the interval is
	// still certified, but it stopped where the memory governor cut the
	// search rather than where the deadline did.
	MemoryLimited bool
}

// Gap returns the relative optimality gap (upper-lower)/upper of a
// scaled certified interval: 0 for a proven optimum (and for the
// degenerate zero-cost optimum).
func Gap(upperScaled, lowerScaled int64) float64 {
	if upperScaled <= 0 || upperScaled <= lowerScaled {
		return 0
	}
	return float64(upperScaled-lowerScaled) / float64(upperScaled)
}

// Gap returns the result's relative optimality gap (see Gap).
func (r Result) Gap() float64 { return Gap(r.UpperScaled, r.LowerScaled) }

func (r Result) String() string {
	state := "certified"
	if r.Optimal {
		state = "optimal"
	}
	return fmt.Sprintf("anytime: [%d, %d] gap=%.1f%% %s via %s in %s",
		r.LowerScaled, r.UpperScaled, 100*r.Gap(), state, r.Source, r.Elapsed.Round(time.Millisecond))
}

// unbounded is the effective search budget when only the deadline
// should stop an engine.
const unbounded = 1 << 40

// refinementOptions assembles the phase-2 engine options from the
// orchestrator options and the certified interval at phase-2 start:
// the incumbent (warm-started or heuristic) seeds PruneBound
// (incumbent+1, so equal-cost optima are still found and proven), and
// the certified floor seeds InitialLowerBound. It is a separate
// function so tests can assert the warm-start values really reach the
// engine.
func refinementOptions(opts Options, incumbentScaled, lowerScaled int64) solve.ExactOptions {
	exact := solve.ExactOptions{
		MaxStates:         unbounded,
		MaxTableBytes:     opts.MaxTableBytes,
		InitialLowerBound: lowerScaled,
		ProgressEvery:     opts.snapshotEvery,
	}
	if incumbentScaled < math.MaxInt64 {
		// Exclusive bound: keep equal-cost completions so the engine
		// can still PROVE the incumbent optimal, prune anything worse.
		exact.PruneBound = incumbentScaled + 1
	}
	return exact
}

// searchRelay funnels the engine's search snapshots into one ordered
// stream: it assigns a strictly increasing Seq, tracks the peak
// frontier size and expansion rate for the Result, mirrors each sample
// as a search-snapshot span event, and fans out to the caller's
// OnSearch. The engine reports on Solve's goroutine, so it needs no
// lock.
type searchRelay struct {
	seq          int
	peakFrontier int64
	peakRate     float64
	on           func(obs.SearchSnapshot)
}

func (r *searchRelay) relay(sp *obs.Span, snap obs.SearchSnapshot) {
	r.seq++
	snap.Seq = r.seq
	if snap.FrontierSize > r.peakFrontier {
		r.peakFrontier = snap.FrontierSize
	}
	if snap.Rate > r.peakRate {
		r.peakRate = snap.Rate
	}
	sp.Event("search-snapshot", snap.Expanded)
	if r.on != nil {
		r.on(snap)
	}
}

// collector accumulates the certified interval across phases, emitting
// a snapshot whenever it tightens. Every report reaches it on Solve's
// goroutine (the heuristics run there, and the engine calls Progress
// there), and each end only moves when it strictly improves, so the
// OnProgress stream is strictly improving and never regresses.
type collector struct {
	p     solve.Problem
	start time.Time
	onP   func(Snapshot)

	upper  int64
	lower  int64
	best   solve.Solution
	source string
	found  bool
}

// emit delivers the current interval to OnProgress, if set.
func (c *collector) emit(source string) {
	if c.onP != nil {
		c.onP(Snapshot{
			Elapsed:     time.Since(c.start),
			UpperScaled: c.upper,
			LowerScaled: c.lower,
			Source:      source,
		})
	}
}

// improveUpper installs sol as the incumbent if it beats the current
// one. sol must already be replay-verified (every solve.Solution is).
func (c *collector) improveUpper(sol solve.Solution, source string) {
	scaled := sol.Result.Cost.Scaled(c.p.Model)
	if scaled >= c.upper {
		return
	}
	c.upper, c.best, c.source, c.found = scaled, sol, source, true
	c.emit(source)
}

// improveUpperMoves verifies a raw move sequence (a warm-start
// incumbent) and installs it.
func (c *collector) improveUpperMoves(moves []pebble.Move, source string) {
	tr := &pebble.Trace{Model: c.p.Model, R: c.p.R, Convention: c.p.Convention, Moves: moves}
	res, err := tr.Run(c.p.G)
	if err != nil {
		// An unreplayable incumbent would be a solver bug; drop it
		// rather than serve an invalid trace.
		return
	}
	c.improveUpper(solve.Solution{Trace: tr, Result: res}, source)
}

// raiseLower ratchets the certified lower bound.
func (c *collector) raiseLower(v int64, source string) {
	if v <= c.lower {
		return
	}
	c.lower = v
	c.emit(source)
}

// closed reports whether the interval has met.
func (c *collector) closed() bool {
	return c.found && c.upper <= c.lower
}

// Solve runs the orchestration: instant root bound, fast upper-bound
// heuristics, then exact refinement until optimality, the budget, or
// ctx. It returns an error only when the instance is
// invalid, infeasible, or no heuristic produced any pebbling within the
// budget; a deadline alone yields a certified non-optimal Result.
func Solve(ctx context.Context, p solve.Problem, opts Options) (Result, error) {
	start := time.Now()
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	// upper starts at MaxInt64 (the documented "no incumbent yet"
	// sentinel for snapshots) so pre-incumbent snapshots never show an
	// inverted [lower, 0] interval.
	c := &collector{p: p, start: start, onP: opts.OnProgress, upper: math.MaxInt64}

	// Phase 0: instant certificate. Also validates the instance.
	lb0, err := solve.RootLowerBound(p, solve.HeuristicAuto)
	if err != nil {
		return Result{}, err
	}
	c.raiseLower(lb0, "root-bound")

	// Phase 0.5: warm start. Install the cached certificate before any
	// heuristic runs, so even a zero-budget repeat of a hard instance
	// returns an interval no wider than the cached one. The incumbent is
	// replay-verified inside improveUpperMoves — a corrupt cache entry
	// costs the warm upper bound, never correctness.
	if opts.Warm != nil {
		_, wsp := obs.StartSpan(ctx, "warm-start")
		src := opts.Warm.Source
		if src == "" {
			src = "warm-start"
		}
		c.raiseLower(opts.Warm.LowerScaled, src)
		if len(opts.Warm.Moves) > 0 {
			c.improveUpperMoves(opts.Warm.Moves, src)
		}
		wsp.SetAttr("source", src)
		wsp.End()
	}

	// Phase 1: cheap upper bounds, best-first order (TopoBelady is the
	// strongest order-oblivious heuristic; the greedy rules can beat it
	// on structured DAGs; random-order sampling adds diversity, with
	// each sampled order budget-pruned against the incumbent inside
	// sched.Execute). Each runs to completion — they are polynomial and
	// fast — but later ones are skipped once the budget fires.
	_, hsp := obs.StartSpan(ctx, "heuristics")
	if sol, err := solve.TopoBelady(p); err == nil {
		c.improveUpper(sol, "topo-belady")
	}
	for _, rule := range solve.AllGreedyRules() {
		if ctx.Err() != nil {
			break
		}
		if sol, err := solve.Greedy(p, rule); err == nil {
			c.improveUpper(sol, "greedy/"+rule.String())
		}
	}
	if !c.found {
		hsp.SetAttr("err", "no heuristic produced a pebbling")
		hsp.End()
		return Result{}, errors.New("anytime: no heuristic produced a pebbling (infeasible instance?)")
	}
	if ctx.Err() == nil && !c.closed() {
		if sol, err := solve.RandomOrders(p, solve.RandomOrdersOptions{
			Samples: 8, Seed: 1, InitialBound: c.upper,
		}); err == nil {
			c.improveUpper(sol, "random-orders")
		}
	}
	hsp.SetAttr("source", c.source)
	hsp.End()

	// Phase 2: exact refinement, unless the interval already met (or
	// the budget died during phase 1). Serial A* runs on this
	// goroutine.
	var stats solve.ExactStats
	memLimited := false
	relay := &searchRelay{on: opts.OnSearch}
	if !c.closed() && ctx.Err() == nil {
		// The engine-attempt span lives on the request's trace; each
		// snapshot's certified lower bound becomes a span event and
		// ratchets the interval, so /debug/trace shows the convergence
		// curve inline.
		_, asp := obs.StartSpan(ctx, "engine:astar")
		exactOpts := refinementOptions(opts, c.upper, c.lower)
		exactOpts.Cancel = ctx.Done()
		exactOpts.Stats = &stats
		exactOpts.Progress = func(sn solve.ExactProgress) {
			asp.Event("lower-bound", sn.LowerBound)
			c.raiseLower(sn.LowerBound, "astar")
			relay.relay(asp, sn)
		}
		sol, err := solve.Exact(p, exactOpts)
		if err == nil {
			asp.SetAttr("outcome", "optimal")
			c.improveUpper(sol, "astar")
			c.raiseLower(sol.Result.Cost.Scaled(p.Model), "astar")
		} else {
			// Canceled, out of budget, or bound-exhausted (every branch
			// at or above the incumbent cut: the incumbent is optimal) —
			// harvest the certified bound either way.
			asp.SetAttr("outcome", err.Error())
			c.raiseLower(stats.LowerBound, "astar")
			memLimited = errors.Is(err, solve.ErrMemoryBudget)
		}
		asp.SetAttr("expanded", strconv.Itoa(stats.Expanded))
		asp.End()
	}

	res := Result{
		Solution:      c.best,
		UpperScaled:   c.upper,
		LowerScaled:   min(c.lower, c.upper), // an achievable cost caps any certificate
		Optimal:       c.upper <= c.lower,
		Source:        c.source,
		Elapsed:       time.Since(start),
		Expanded:      stats.Expanded,
		TableBytes:    stats.TableBytes,
		PeakFrontier:  relay.peakFrontier,
		PeakRate:      relay.peakRate,
		MemoryLimited: memLimited,
	}
	res.Upper = float64(res.UpperScaled) / CostScale(p.Model)
	res.Lower = float64(res.LowerScaled) / CostScale(p.Model)
	return res, nil
}

// CostScale returns the divisor converting scaled cost units
// (pebble.Cost.Scaled) back to model cost values — shared with the
// serving layer so cost-unit semantics live in one place.
func CostScale(m pebble.Model) float64 {
	if m.Kind == pebble.CompCost {
		return float64(m.EpsDenom)
	}
	return 1
}
