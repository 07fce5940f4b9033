package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/solve"
)

// The exact workload: cold proofs through the library. Each instance is
// solved by anytime.Solve with no budget and one worker (the service's
// default) until its interval closes, one after another. The engines do
// nearly all the work — A*, IDA*, the S-partition heuristic and the state
// table — and canonicalization, the cache and HTTP do none.

const (
	// unbounded lifts the engines' own state caps, as anytime.Solve does;
	// the time cap bounds a standalone run instead.
	unbounded = 1 << 40
	// The heuristic-off run is affordable only on instances where A*
	// expands at most dijkstraAfter states; it stops at dijkstraMaxStates.
	dijkstraAfter     = 100_000
	dijkstraMaxStates = 300_000
	// engineCap bounds each standalone A* run of the traced run, and idaCap
	// each IDA* run: IDA* needs about 15s on fft(3) R=3, where it loses the
	// race anyway. A capped run counts as losing and is left out of its
	// engine's per-expansion cost.
	engineCap = 15 * time.Second
	idaCap    = 5 * time.Second
	// exactPassSeconds is the window share of one pass over the corpus,
	// which takes 6-9s on the 2-core reference host.
	exactPassSeconds = 10 * time.Second
)

// proof is one anytime.Solve call.
type proof struct {
	req  *request
	res  anytime.Result
	err  error
	wall time.Duration
}

// prove solves req to proof under its time cap, so that a pathological
// instance fails the gate loudly instead of hanging the run.
func prove(req *request) proof {
	ctx, cancel := context.WithTimeout(context.Background(), req.limit)
	defer cancel()
	start := time.Now()
	res, err := anytime.Solve(ctx, req.p, anytime.Options{})
	return proof{req: req, res: res, err: err, wall: time.Since(start)}
}

// checkProof is the exact workload's gate: the interval closed within
// the cap, at the known optimum where there is one, and the incumbent
// replays on the instance at exactly that cost.
func checkProof(pf proof) error {
	name := pf.req.class
	switch {
	case pf.err != nil:
		return fmt.Errorf("%s: %v", name, pf.err)
	case !pf.res.Optimal:
		return fmt.Errorf("%s: interval [%d, %d] did not close within %s", name, pf.res.LowerScaled, pf.res.UpperScaled, pf.req.limit)
	case pf.req.opt > 0 && pf.res.UpperScaled != pf.req.opt:
		return fmt.Errorf("%s: proved optimum %d, known optimum %d", name, pf.res.UpperScaled, pf.req.opt)
	case pf.res.Solution.Trace == nil:
		return fmt.Errorf("%s: proof without a trace", name)
	}
	got, err := replayCost(pf.req.p, pf.res.Solution.Trace.Moves)
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	if got != pf.res.UpperScaled {
		return fmt.Errorf("%s: trace replays at %d, upper bound %d", name, got, pf.res.UpperScaled)
	}
	return nil
}

func runExact(o options) (*outcome, error) {
	out := newOutcome()
	var corpus []*request
	err := out.timeSetup(exactSetupReps, func() (err error) {
		corpus, err = exactCorpus(o.seed)
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}
	out.inputDigest = digest(bodies(corpus)...)
	measureExact(out, corpus, o)
	return out, nil
}

// measureExact proves the corpus in one whole pass per exactPassSeconds
// of the window (at least one), gates every proof after the passes, and
// records the metrics. A traced run then goes on to exactLayers. The pass
// count depends on the window alone: a count that followed the host's
// speed would change the statistic along with the speed.
func measureExact(out *outcome, corpus []*request, o options) {
	rt0 := readRuntime()
	passes := make([][]proof, max(1, int(o.window/exactPassSeconds)))
	for n := range passes {
		start := time.Now()
		passes[n] = make([]proof, len(corpus))
		for i, req := range corpus {
			passes[n][i] = prove(req)
		}
		out.notes = append(out.notes, fmt.Sprintf("pass %d: %.3f s", n+1, time.Since(start).Seconds()))
	}
	out.runtimeDelta(rt0, readRuntime())
	out.values["mem_peak_mb"] = peakRSSMB()

	perInstance := make([]float64, len(corpus)) // median proof time, ms
	var gaps []float64
	closed := 0
	for i := range corpus {
		var times []float64
		for _, pass := range passes {
			pf := pass[i]
			out.attempted++
			if err := checkProof(pf); err != nil {
				out.violate(err)
			} else {
				closed++
			}
			times = append(times, ms(pf.wall))
			gaps = append(gaps, pf.res.Gap())
		}
		perInstance[i] = median(times)
		out.notes = append(out.notes, fmt.Sprintf("proof %-20s %10.1f ms (median of %d)", corpus[i].class, perInstance[i], len(times)))
	}
	v := out.values
	v["solve_s"] = sum(perInstance) / 1000
	v["throughput_rps"] = ratio(float64(len(corpus)), v["solve_s"])
	// Latencies are over the per-instance medians, so the sample count is
	// the corpus size whatever the number of passes.
	out.latencies(perInstance)
	v["proof_geomean_ms"] = v["latency_geomean_ms"]
	v["optimal_frac"] = ratio(float64(closed), float64(out.attempted))
	v["gap_mean"] = mean(gaps)
	if o.tr != nil {
		exactLayers(out, corpus, o.tr, sum(perInstance))
	}
}

// exactLayers is the traced run on exact: per instance, one span wraps
// anytime.Solve, and standalone calls into each engine-side layer follow
// on the same instance as its siblings.
func exactLayers(out *outcome, corpus []*request, tr *tracer, untracedMS float64) {
	var (
		solveMS, raceMS, raceMinMS        float64
		astarNS, astarExp, astarTable     float64
		dijNS, dijExp, progNS, progBaseNS float64
		idaNS, idaVisits, idaTable        float64
		rootUS, heurMS, replayUS          []float64
		phase1, idaWins, raced            int
	)
	for _, req := range corpus {
		name, p := req.class, req.p
		root := tr.add(name, "bench.instance", 0, time.Now(), time.Now())
		var pf proof
		tr.timed(name, "anytime.Solve", root, func() { pf = prove(req) })
		solveMS += ms(pf.wall)
		if pf.res.Expanded == 0 && pf.res.Visits == 0 {
			phase1++
		}
		rootUS = append(rootUS, us(tr.timed(name, "solve.RootLowerBound", root, func() { solve.RootLowerBound(p, solve.HeuristicAuto) })))
		heur := tr.add(name, "solve.heuristics", root, time.Now(), time.Now())
		heurMS = append(heurMS, ms(runHeuristics(tr, name, heur, p)))
		tr.end(heur, time.Now())

		var ast solve.ExactStats
		aWall, aErr := engineRun(tr, name, "solve.Exact", root, engineCap, func(cancel <-chan struct{}) error {
			_, err := solve.Exact(p, solve.ExactOptions{MaxStates: unbounded, Stats: &ast, Cancel: cancel})
			return err
		})
		if aErr == nil {
			astarNS += float64(aWall)
			astarExp += float64(ast.Expanded)
			astarTable = max(astarTable, float64(ast.TableBytes))
			if ast.Expanded <= dijkstraAfter {
				var dst solve.ExactStats
				dWall, err := engineRun(tr, name, "solve.Exact.dijkstra", root, engineCap, func(cancel <-chan struct{}) error {
					_, err := solve.Exact(p, solve.ExactOptions{Heuristic: solve.HeuristicOff, MaxStates: dijkstraMaxStates, Stats: &dst, Cancel: cancel})
					return err
				})
				if err == nil {
					dijNS += float64(dWall)
					dijExp += float64(dst.Expanded)
				}
			}
			pWall, err := engineRun(tr, name, "solve.Exact.progress", root, engineCap, func(cancel <-chan struct{}) error {
				_, err := solve.Exact(p, solve.ExactOptions{MaxStates: unbounded, Cancel: cancel, Progress: func(solve.ExactProgress) {}})
				return err
			})
			if err == nil {
				progNS += float64(pWall)
				progBaseNS += float64(aWall)
			}
		}
		var dst solve.ExactDFSStats
		iWall, iErr := engineRun(tr, name, "solve.ExactDFS", root, idaCap, func(cancel <-chan struct{}) error {
			_, err := solve.ExactDFS(p, solve.ExactDFSOptions{MaxVisits: unbounded, Stats: &dst, Cancel: cancel})
			return err
		})
		if iErr == nil {
			idaNS += float64(iWall)
			idaVisits += float64(dst.Visits)
			idaTable = max(idaTable, float64(dst.TableBytes))
		}
		if (aErr == nil || iErr == nil) && pf.err == nil {
			raced++
			fastest := aWall
			if iErr == nil && (aErr != nil || iWall < aWall) {
				idaWins++
				fastest = iWall
			}
			raceMS += ms(pf.wall)
			raceMinMS += ms(fastest)
		}
		if pf.err == nil && pf.res.Solution.Trace != nil {
			moves := pf.res.Solution.Trace.Moves
			replayUS = append(replayUS, us(tr.timed(name, "pebble.Trace.Run", root, func() { replayCost(p, moves) })))
		}
		tr.end(root, time.Now())
	}
	n := float64(len(corpus))
	v := out.values
	v["anytime.solve_ms"] = solveMS / n
	v["anytime.phase1_closed_frac"] = float64(phase1) / n
	v["anytime.ida_win_frac"] = ratio(float64(idaWins), float64(raced))
	v["anytime.race_overhead_frac"] = overhead(raceMS, raceMinMS)
	v["bench.trace_overhead_frac"] = overhead(solveMS, untracedMS)
	v["solve.astar.ns_per_expansion"] = ratio(astarNS, astarExp)
	v["solve.astar.expanded"] = astarExp
	v["solve.astar.table_mb"] = astarTable / 1e6
	v["solve.dijkstra.ns_per_expansion"] = ratio(dijNS, dijExp)
	v["solve.ida.ns_per_visit"] = ratio(idaNS, idaVisits)
	v["solve.ida.visits"] = idaVisits
	v["solve.ida.table_mb"] = idaTable / 1e6
	v["solve.snapshot_overhead_frac"] = overhead(progNS, progBaseNS)
	v["solve.root_bound_us"] = mean(rootUS)
	v["solve.heuristics_ms"] = mean(heurMS)
	v["pebble.replay_us"] = mean(replayUS)
}

// runHeuristics runs the upper-bound heuristics as anytime.Solve's first
// phase does — TopoBelady, every greedy rule, then eight random orders
// pruned against the best so far — each in its own span, and returns
// their total time.
func runHeuristics(tr *tracer, name string, parent int, p solve.Problem) time.Duration {
	best := int64(math.MaxInt64)
	keep := func(sol solve.Solution, err error) {
		if err == nil {
			best = min(best, sol.Result.Cost.Scaled(p.Model))
		}
	}
	total := tr.timed(name, "solve.TopoBelady", parent, func() { keep(solve.TopoBelady(p)) })
	for _, rule := range solve.AllGreedyRules() {
		total += tr.timed(name, "solve.Greedy."+rule.String(), parent, func() { keep(solve.Greedy(p, rule)) })
	}
	if best == math.MaxInt64 {
		return total
	}
	total += tr.timed(name, "solve.RandomOrders", parent, func() {
		keep(solve.RandomOrders(p, solve.RandomOrdersOptions{Samples: 8, Seed: 1, InitialBound: best}))
	})
	return total
}

// engineRun times one standalone engine call under a time cap.
func engineRun(tr *tracer, name, span string, parent int, limit time.Duration, run func(cancel <-chan struct{}) error) (time.Duration, error) {
	cancel := make(chan struct{})
	timer := time.AfterFunc(limit, func() { close(cancel) })
	defer timer.Stop()
	var err error
	d := tr.timed(name, span, parent, func() { err = run(cancel) })
	return d, err
}
