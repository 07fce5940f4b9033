package solve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/reduce"
	"rbpebble/internal/ugraph"
)

// The golden table pins the deterministic cost of every exact engine on
// the canonical instances: states expanded, distinct states, IDA*
// visits and the scaled optimum. The engines are exact, so any change
// to these numbers is a change of search order, pruning or heuristic;
// a change that means to alter them updates its rows here in the same
// commit. TestGoldenCounts checks every row that solves in well under a
// second, symmetry-reduced A* on fft(3) included; the other fft(3) full
// solves take seconds, so the benchmark named after the row checks it
// instead and fails when the counts move.

func pyramid5R4() Problem {
	return Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.Oneshot), R: 4}
}

func pyramid5R3() Problem {
	return Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.Oneshot), R: 3}
}

func pyramid5R4NoDel() Problem {
	return Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.NoDel), R: 4}
}

func fft3R3() Problem {
	return Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
}

func grid44R3() Problem {
	return Problem{G: daggen.Grid(4, 4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
}

// k6Oneshot is the Theorem 2 reduction of K6 (R = N = 6): a Hamiltonian
// path exists, so the optimum is the reduction's oneshot threshold.
func k6Oneshot() Problem {
	r := reduce.NewHamPath(ugraph.Complete(6))
	return Problem{G: r.G, Model: pebble.NewModel(pebble.Oneshot), R: r.R}
}

// goldenRow is one pinned solve.
type goldenRow struct {
	// name identifies the row; Benchmark<name>, where it exists, runs
	// the row with benchGolden.
	name string
	p    func() Problem
	// ida selects ExactDFS (IDA*); otherwise Exact runs with opts.
	ida  bool
	opts ExactOptions
	// slow rows (fft(3) full solves) are checked by their benchmark
	// only: too slow for tier-1 and the race job.
	slow bool

	// Pinned results. A row with lower > 0 must abort with
	// ErrMemoryBudget, certifying lower.
	expanded, distinct, visits int
	optimum, lower             int64
}

var goldenRows = []goldenRow{
	{name: "ExactAStarPyramid5R4", p: pyramid5R4, expanded: 2861, distinct: 3693, optimum: 8},
	// nodel bans deletes, so every eviction is a Store and the
	// dead-pebble quotient is off: the row pins the normal-form rules
	// without it.
	{name: "ExactAStarPyramid5R4NoDel", p: pyramid5R4NoDel, expanded: 82282, distinct: 84123, optimum: 25},
	{name: "ExactDijkstraPyramid5R4", p: pyramid5R4, opts: ExactOptions{Heuristic: HeuristicOff},
		expanded: 61651, distinct: 71935, optimum: 8},
	{name: "ExactAStarGrid44R3", p: grid44R3, expanded: 247, distinct: 293, optimum: 12},
	{name: "ExactDijkstraGrid44R3", p: grid44R3, opts: ExactOptions{Heuristic: HeuristicOff},
		expanded: 2253, distinct: 2293, optimum: 12},
	// R = Δ+1, the S-partition packing's design target.
	{name: "ExactAStarPyramid5R3", p: pyramid5R3, expanded: 544, distinct: 1092, optimum: 20},
	{name: "ExactIDAStarPyramid5R4", p: pyramid5R4, ida: true, visits: 14001, optimum: 8},
	{name: "ExactDFSGrid44R3", p: grid44R3, ida: true, visits: 1360, optimum: 12},
	// A listener sampling at every gate must not change the search.
	{name: "ExactAStarPyramid5R4Listener", p: pyramid5R4,
		opts:     ExactOptions{Progress: func(ExactProgress) {}, ProgressEvery: time.Nanosecond},
		expanded: 2861, distinct: 3693, optimum: 8},
	// fft(3) under a 1 MiB table budget aborts within milliseconds.
	{name: "MemBudgetAbort", p: fft3R3, opts: ExactOptions{MaxTableBytes: 1 << 20},
		expanded: 16384, distinct: 17168, lower: 26},

	// A Theorem 2 instance, symmetric under the source's automorphisms.
	{name: "ExactAStarK6Oneshot", p: k6Oneshot, expanded: 51276, distinct: 67567, optimum: 25},

	{name: "ExactAStarFFT3R3", p: fft3R3, expanded: 24731, distinct: 25463, optimum: 31},
	{name: "ExactDijkstraFFT3R3", p: fft3R3, slow: true, opts: ExactOptions{Heuristic: HeuristicOff},
		expanded: 4021352, distinct: 4135674, optimum: 31},
	{name: "ExactIDAStarFFT3R3", p: fft3R3, slow: true, ida: true, visits: 4868079, optimum: 31},
	{name: "SearchSnapshotOverhead", p: fft3R3, slow: true, opts: ExactOptions{Progress: func(ExactProgress) {}},
		expanded: 24731, distinct: 25463, optimum: 31},
}

// goldenResult is what one run of a row measured.
type goldenResult struct {
	expanded, distinct, visits int
	scaled, lower              int64
	tableBytes                 int64
}

// run solves the row's instance once.
func (row goldenRow) run() (goldenResult, error) {
	p := row.p()
	if row.ida {
		var stats ExactDFSStats
		sol, err := ExactDFS(p, ExactDFSOptions{MaxVisits: 50_000_000, Stats: &stats})
		if err != nil {
			return goldenResult{}, err
		}
		return goldenResult{visits: stats.Visits, scaled: sol.Result.Cost.Scaled(p.Model), tableBytes: stats.TableBytes}, nil
	}
	var stats ExactStats
	opts := row.opts
	opts.MaxStates = 50_000_000
	opts.Stats = &stats
	sol, err := Exact(p, opts)
	got := goldenResult{expanded: stats.Expanded, distinct: stats.Distinct, lower: stats.LowerBound, tableBytes: stats.TableBytes}
	if row.lower > 0 {
		if !errors.Is(err, ErrMemoryBudget) {
			return got, fmt.Errorf("err = %v, want ErrMemoryBudget", err)
		}
		return got, nil
	}
	if err != nil {
		return got, err
	}
	got.scaled = sol.Result.Cost.Scaled(p.Model)
	return got, nil
}

// check compares a run against the numbers the row pins.
func (row goldenRow) check(got goldenResult) error {
	pinned := goldenResult{expanded: got.expanded, distinct: got.distinct, visits: got.visits, scaled: got.scaled}
	if row.lower > 0 {
		pinned.lower = got.lower
	}
	want := goldenResult{expanded: row.expanded, distinct: row.distinct, visits: row.visits, scaled: row.optimum, lower: row.lower}
	if pinned != want {
		return fmt.Errorf("%s: got %+v, want %+v", row.name, pinned, want)
	}
	return nil
}

func TestGoldenCounts(t *testing.T) {
	for _, row := range goldenRows {
		if row.slow {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			got, err := row.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := row.check(got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// benchGolden runs the named golden row b.N times, reports its counts
// and fails when they differ from the table.
func benchGolden(b *testing.B, name string) {
	b.Helper()
	var row goldenRow
	for _, r := range goldenRows {
		if r.name == name {
			row = r
		}
	}
	if row.name == "" {
		b.Fatalf("no golden row %q", name)
	}
	b.ReportAllocs()
	var got goldenResult
	for i := 0; i < b.N; i++ {
		var err error
		if got, err = row.run(); err != nil {
			b.Fatal(err)
		}
	}
	if row.ida {
		b.ReportMetric(float64(got.visits), "visits/op")
	} else {
		b.ReportMetric(float64(got.expanded), "states/op")
		b.ReportMetric(float64(got.distinct), "distinct/op")
	}
	b.ReportMetric(float64(got.tableBytes), "table-bytes/op")
	if err := row.check(got); err != nil {
		b.Fatal(err)
	}
}
