// Command rbpebble solves red-blue pebbling instances: it reads a DAG in
// the library's text format, runs the selected solver under the selected
// model, and prints the verified cost (optionally writing the full move
// trace).
//
// Usage:
//
//	rbgen -kind pyramid -a 5 -o pyr.dag
//	rbpebble -graph pyr.dag -model oneshot -r 3 -solver topobelady
//	rbpebble -graph pyr.dag -model oneshot -r 3 -solver exact -trace out.trace
//	rbpebble -graph pyr.dag -model compcost -eps 100 -r 3 -solver greedy
//	rbpebble -graph big.dag -model oneshot -r 4 -deadline 500ms
//	rbpebble -graph big.dag -r 4 -deadline 500ms -progress
//
// With -deadline the run goes through the anytime orchestrator: on
// instances too hard to solve exactly in time it prints a certified
// [lower, upper] interval (plus the incumbent's verified cost) instead
// of dying on a budget error. Adding -progress streams every certified
// tightening of the interval to stderr while the solve runs — including
// A*'s mid-flight certified lower bound.
// Adding -watch refreshes a live single-line search view (engine,
// expansion rate, frontier and table size) from the engines' sampled
// introspection snapshots.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/dag"
	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input DAG file (text format; - for stdin)")
		modelName = flag.String("model", "oneshot", "model: base|oneshot|nodel|compcost")
		epsDenom  = flag.Int("eps", 100, "compcost ε denominator (ε = 1/eps)")
		r         = flag.Int("r", 0, "red pebble limit (default Δ+1)")
		solver    = flag.String("solver", "topobelady", "solver: exact|dfs|greedy|topo|topobelady")
		rule      = flag.String("rule", "most-red-inputs", "greedy rule: most-red-inputs|fewest-blue-inputs|red-ratio")
		tracePath = flag.String("trace", "", "write the verified move trace to this file")
		maxStates = flag.Int("maxstates", 0, "exact solver state budget (0 = default)")
		maxTableB = flag.Int64("maxtablebytes", 0, "exact/dfs/anytime table memory budget in bytes (0 = unlimited); on abort the certified partial interval is printed")
		blueSrc   = flag.Bool("blue-sources", false, "sources start blue (Hong-Kung convention)")
		blueSink  = flag.Bool("blue-sinks", false, "sinks must end blue")
		heuristic = flag.String("heuristic", "auto", "exact solver lower bound: auto|off")
		maxVisits = flag.Int("maxvisits", 0, "dfs solver visit budget (0 = default)")
		deadline  = flag.Duration("deadline", 0, "anytime budget: run heuristics, then A* to refine a certified [lower, upper] interval (overrides -solver)")
		progress  = flag.Bool("progress", false, "with -deadline: print live certified [lower, upper] updates to stderr as the interval tightens (A* streams its certified bound mid-flight)")
		watch     = flag.Bool("watch", false, "with -deadline: live single-line search view on stderr (engine, expansion rate, frontier, table size), refreshed from the engine's sampled snapshots")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "rbpebble: missing -graph")
		flag.Usage()
		os.Exit(2)
	}

	g, err := readGraph(*graphPath)
	if err != nil {
		fatal(err)
	}
	model, err := parseModel(*modelName, *epsDenom)
	if err != nil {
		fatal(err)
	}
	rr := *r
	if rr == 0 {
		rr = pebble.MinFeasibleR(g)
	}
	p := solve.Problem{
		G: g, Model: model, R: rr,
		Convention: pebble.Convention{SourcesStartBlue: *blueSrc, SinksMustBeBlue: *blueSink},
	}

	var sol solve.Solution
	anytimeInfo := ""
	switch {
	case *deadline > 0:
		opts := anytime.Options{
			Budget:        *deadline,
			MaxTableBytes: *maxTableB,
		}
		if *progress {
			// Each snapshot strictly tightens the interval (the
			// orchestrator deduplicates and orders emissions), so the
			// stream reads as a monotone convergence log.
			opts.OnProgress = func(s anytime.Snapshot) {
				upper := "?"
				if s.UpperScaled != math.MaxInt64 {
					upper = fmt.Sprintf("%d", s.UpperScaled)
				}
				fmt.Fprintf(os.Stderr, "progress:  [%d, %s] via %s at %s\n",
					s.LowerScaled, upper, s.Source, s.Elapsed.Round(time.Millisecond))
			}
		}
		watching := false
		if *watch {
			// Live single-line search view, refreshed in place. The one
			// exact engine's snapshots arrive in one stream with strictly
			// increasing Seq, so the line simply shows the latest sample.
			opts.OnSearch = func(sn obs.SearchSnapshot) {
				watching = true
				fmt.Fprintf(os.Stderr, "\rwatch:     %-12s %6.1fs  %9d expanded  %8.0f st/s  frontier %-8d lower %-6d table %s   ",
					sn.Engine, sn.ElapsedMS/1000, sn.Expanded, sn.Rate,
					sn.FrontierSize, sn.LowerBound, fmtBytes(sn.TableBytes))
			}
		}
		res, aerr := anytime.Solve(context.Background(), p, opts)
		if watching {
			fmt.Fprintln(os.Stderr) // terminate the refreshed line
		}
		if aerr != nil {
			fatal(aerr)
		}
		sol = res.Solution
		state := "certified interval (deadline hit)"
		if res.Optimal {
			state = "proven optimal"
		}
		if res.MemoryLimited {
			state += ", memory-limited"
		}
		anytimeInfo = fmt.Sprintf("anytime:   [%d, %d] scaled, gap=%.1f%%, %s via %s in %s\n",
			res.LowerScaled, res.UpperScaled, 100*res.Gap(), state, res.Source,
			res.Elapsed.Round(time.Millisecond))
		err = nil
	case *solver == "exact":
		h, herr := parseHeuristic(*heuristic)
		if herr != nil {
			fatal(herr)
		}
		var stats solve.ExactStats
		opts := solve.ExactOptions{
			MaxStates: *maxStates, Heuristic: h,
			MaxTableBytes: *maxTableB, Stats: &stats,
		}
		sol, err = solve.Exact(p, opts)
		if errors.Is(err, solve.ErrMemoryBudget) {
			fatalMemBudget(*maxTableB, stats.LowerBound, -1)
		}
	case *solver == "dfs":
		var stats solve.ExactDFSStats
		sol, err = solve.ExactDFS(p, solve.ExactDFSOptions{
			MaxVisits: *maxVisits, MaxTableBytes: *maxTableB, Stats: &stats,
		})
		if errors.Is(err, solve.ErrMemoryBudget) {
			fatalMemBudget(*maxTableB, stats.LowerBound, stats.Incumbent)
		}
	case *solver == "greedy":
		gr, perr := parseRule(*rule)
		if perr != nil {
			fatal(perr)
		}
		sol, err = solve.Greedy(p, gr)
	case *solver == "topo":
		sol, err = solve.Topological(p)
	case *solver == "topobelady":
		sol, err = solve.TopoBelady(p)
	default:
		fatal(fmt.Errorf("unknown solver %q", *solver))
	}
	if err != nil {
		fatal(err)
	}

	res := sol.Result
	fmt.Printf("graph:     n=%d m=%d Δ=%d\n", g.N(), g.M(), g.MaxInDegree())
	fmt.Printf("problem:   model=%s R=%d\n", model, rr)
	if anytimeInfo != "" {
		fmt.Printf("solver:    anytime (deadline %s)\n", *deadline)
		fmt.Print(anytimeInfo)
	} else {
		fmt.Printf("solver:    %s\n", *solver)
	}
	fmt.Printf("cost:      %.4f (transfers=%d computes=%d)\n", res.Cost.Value(model), res.Cost.Transfers, res.Cost.Computes)
	fmt.Printf("steps:     %d (loads=%d stores=%d computes=%d deletes=%d)\n",
		res.Steps, res.Loads, res.Stores, res.Computes, res.Deletes)
	fmt.Printf("peak red:  %d / %d\n", res.MaxRed, rr)
	fmt.Printf("bound:     (2Δ+1)n = %d transfers\n", pebble.CostUpperBound(g, model).Transfers)

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := sol.Trace.WriteText(f); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:     %s (%d moves)\n", *tracePath, len(sol.Trace.Moves))
	}
}

func readGraph(path string) (*dag.DAG, error) {
	if path == "-" {
		return dag.ReadText(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dag.ReadText(f)
}

func parseModel(name string, epsDenom int) (pebble.Model, error) {
	kind, err := pebble.ParseModelKind(name)
	if err != nil {
		return pebble.Model{}, err
	}
	m := pebble.Model{Kind: kind}
	if kind == pebble.CompCost {
		m.EpsDenom = epsDenom
	}
	return m, nil
}

func parseHeuristic(name string) (solve.Heuristic, error) {
	for _, h := range []solve.Heuristic{solve.HeuristicAuto, solve.HeuristicOff} {
		if h.String() == name {
			return h, nil
		}
	}
	return 0, fmt.Errorf("unknown heuristic %q", name)
}

func parseRule(name string) (solve.GreedyRule, error) {
	for _, r := range solve.AllGreedyRules() {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("unknown greedy rule %q", name)
}

// fmtBytes renders a byte count at watch-line precision.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rbpebble:", err)
	os.Exit(1)
}

// fatalMemBudget reports a -maxtablebytes abort as a certified partial
// result — the search proved lower <= optimum (<= upper, when the
// engine carries an incumbent) before the table filled — instead of a
// bare failure. upper < 0 means the engine has no incumbent.
func fatalMemBudget(budget, lower, upper int64) {
	fmt.Fprintf(os.Stderr, "rbpebble: table memory budget (%s) exceeded\n", fmtBytes(budget))
	if upper >= 0 {
		fmt.Printf("partial:   certified interval [%d, %d] scaled (memory-limited; raise -maxtablebytes or use -deadline)\n", lower, upper)
	} else {
		fmt.Printf("partial:   certified lower bound %d scaled (memory-limited; raise -maxtablebytes or use -deadline)\n", lower)
	}
	os.Exit(1)
}
