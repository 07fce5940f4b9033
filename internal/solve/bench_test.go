package solve

import (
	"errors"
	"testing"

	"rbpebble/internal/benchharness"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// Solver microbenchmarks on the canonical workloads at fixed R, all in
// the oneshot model. Each benchmark reports states-expanded (for the
// exact searches) alongside ns/op and allocs/op, and the whole suite
// can emit machine-readable results for cross-PR tracking (a relative
// path resolves against the package directory, so pass an absolute one
// to refresh the repo-root artifact):
//
//	go test ./internal/solve ./internal/anytime -p 1 -bench . -benchtime 1x -benchjson "$PWD"/BENCH_solver.json
//
// (The flag is named -benchjson because the go tool claims -json for
// its own test2json stream.)
//
// Reference numbers for the seed implementation (string-keyed Dijkstra,
// container/heap, full-state clone per candidate), measured on the seed
// commit with the same instances:
//
//	pyramid(5) R=4:  3.85 s/op   21,634,392 allocs/op   65,689 states
//	grid(4,4)  R=3:  79 ms/op       583,607 allocs/op    2,239 states
//
// The PR 1 rewrite (A* + packed states + allocation-free loop), same
// machine:
//
//	pyramid(5) R=4 A*:        15 ms/op      719 allocs/op    7,387 states
//	pyramid(5) R=4 Dijkstra:  72 ms/op      200 allocs/op   65,689 states
//	fft(3)     R=3 A*:       2.8  s/op      923 allocs/op  1.27M states
//
// With the S-partition bound, the async HDA* engine and IDA*, same machine:
//
//	pyramid(5) R=3 lower-bound:    20 ms/op  12,704 states  (R = Δ+1)
//	pyramid(5) R=3 s-partition:   5.6 ms/op   1,974 states  (6.4x fewer)
//	pyramid(5) R=4 async-hda   4w: 20 ms/op   7,624 states
//	pyramid(5) R=4 async-hda   8w: 22 ms/op   7,762 states
//	fft(3)     R=3 async-hda   4w: 3.24 s/op 1.265M states
//	fft(3)     R=3 IDA*:          7.9 s/op   6.17M visits — solves within
//	    the 16M default budget.
//
// The async watermark throttle holds parallel expansions near the
// serial state count as workers grow (Ablation D).
//
// This PR (arena-slab state table, bucketed two-level frontier queue,
// slab-backed heuristic masks), same machine, serial A* on the
// fft(3) R=3 memory row (1.37M distinct states):
//
//	allocs/op:  858 -> 429    (bucket recycling + bitset slabs)
//	bytes/op:   595 MB -> 592 MB allocation traffic, with the probe
//	    slots halved (packed tag|ref word) and the per-state cost,
//	    heuristic and key sharing one arena row; the table itself peaks
//	    at 80 MB (the new peak_table_bytes column)
//	ns/op:      3.22 s -> 2.99 s
//	states/op:  1,265,002 — bit-identical to the committed row, as the
//	    bucket queue preserves the (f asc, g desc) pop order
//
// This PR (engine-introspection snapshots), re-measured on its own
// container at -benchtime 3x:
//
//	fft(3) R=3 A* nil listener:   5.21 s/op    462 allocs/op
//	fft(3) R=3 A* 100ms listener: 5.59 s/op    590 allocs/op
//
// The listener-less run is bit-identical to the pre-change tree (same
// allocation count and bytes on the same host; the wall gap vs the
// committed 2.99 s row is container noise — the pre-change tree
// measures the same 4.2-5.4 s band here). The watching tax is ~50
// samples over the solve: one histogram slice plus sampler bookkeeping
// per 100ms snapshot.

// The -benchjson flag, record type and merge-write live in
// internal/benchharness, shared with the anytime benchmark suite.

func TestMain(m *testing.M) { benchharness.Main(m) }

func record(b *testing.B, base benchharness.Baseline, rec benchharness.Record) {
	benchharness.Capture(b, base, rec)
}

func pyramid5R4() Problem {
	return Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.Oneshot), R: 4}
}

func pyramid5R3() Problem {
	return Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.Oneshot), R: 3}
}

func fft3R3() Problem {
	return Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
}

func grid44R3() Problem {
	return Problem{G: daggen.Grid(4, 4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
}

func benchExact(b *testing.B, p Problem, opts ExactOptions) {
	b.Helper()
	b.ReportAllocs()
	var stats ExactStats
	opts.Stats = &stats
	opts.MaxStates = 50_000_000
	m0 := benchharness.Before()
	var scaled int64
	for i := 0; i < b.N; i++ {
		sol, err := Exact(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		scaled = sol.Result.Cost.Scaled(p.Model)
	}
	b.ReportMetric(float64(stats.Expanded), "states/op")
	b.ReportMetric(float64(stats.Distinct), "distinct/op")
	b.ReportMetric(float64(stats.TableBytes), "table-bytes/op")
	record(b, m0, benchharness.Record{
		StatesExpanded: stats.Expanded,
		DistinctStates: stats.Distinct,
		OptimalScaled:  scaled,
		PeakTableBytes: stats.TableBytes,
	})
}

// Serial engine, heuristic tiers.

func BenchmarkExactAStarPyramid5R4(b *testing.B) { benchExact(b, pyramid5R4(), ExactOptions{}) }

func BenchmarkExactDijkstraPyramid5R4(b *testing.B) {
	benchExact(b, pyramid5R4(), ExactOptions{Heuristic: HeuristicOff})
}

func BenchmarkExactAStarFFT3R3(b *testing.B) { benchExact(b, fft3R3(), ExactOptions{}) }

func BenchmarkExactDijkstraFFT3R3(b *testing.B) {
	benchExact(b, fft3R3(), ExactOptions{Heuristic: HeuristicOff})
}

func BenchmarkExactAStarGrid44R3(b *testing.B) { benchExact(b, grid44R3(), ExactOptions{}) }

func BenchmarkExactDijkstraGrid44R3(b *testing.B) {
	benchExact(b, grid44R3(), ExactOptions{Heuristic: HeuristicOff})
}

// S-partition vs single-certificate bound on the pyramid at R = Δ+1 —
// the regime PR 1 left at ~2x state reduction. These two rows feed the
// Ablation B comparison.

func BenchmarkExactSPartitionPyramid5R3(b *testing.B) {
	benchExact(b, pyramid5R3(), ExactOptions{Heuristic: HeuristicSPartition})
}

func BenchmarkExactLowerBoundPyramid5R3(b *testing.B) {
	benchExact(b, pyramid5R3(), ExactOptions{Heuristic: HeuristicLowerBound})
}

// Async HDA* at 4 and 8 workers.

func BenchmarkExactAsync4Pyramid5R4(b *testing.B) {
	benchExact(b, pyramid5R4(), ExactOptions{Parallel: 4})
}

func BenchmarkExactAsync8Pyramid5R4(b *testing.B) {
	benchExact(b, pyramid5R4(), ExactOptions{Parallel: 8})
}

func BenchmarkExactAsync4FFT3R3(b *testing.B) {
	benchExact(b, fft3R3(), ExactOptions{Parallel: 4})
}

// Depth-first exact solvers.

func benchDFS(b *testing.B, p Problem, opts ExactDFSOptions) {
	b.Helper()
	b.ReportAllocs()
	var stats ExactDFSStats
	opts.Stats = &stats
	if opts.MaxVisits == 0 {
		opts.MaxVisits = 50_000_000
	}
	m0 := benchharness.Before()
	var scaled int64
	for i := 0; i < b.N; i++ {
		sol, err := ExactDFS(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		scaled = sol.Result.Cost.Scaled(p.Model)
	}
	b.ReportMetric(float64(stats.Visits), "visits/op")
	record(b, m0, benchharness.Record{Visits: stats.Visits, OptimalScaled: scaled, PeakTableBytes: stats.TableBytes})
}

func BenchmarkExactIDAStarPyramid5R4(b *testing.B) {
	benchDFS(b, pyramid5R4(), ExactDFSOptions{})
}

// BenchmarkExactIDAStarFFT3R3 is the acceptance demonstration for the
// IDA* rebuild: fft(3) R=3 solves oneshot at ~6.2M visits — well within
// the 16M default budget.
func BenchmarkExactIDAStarFFT3R3(b *testing.B) {
	benchDFS(b, fft3R3(), ExactDFSOptions{})
}

func BenchmarkExactDFSGrid44R3(b *testing.B) {
	benchDFS(b, grid44R3(), ExactDFSOptions{})
}

// BenchmarkMemBudgetAbort measures the memory-governance abort path:
// fft(3) R=3 (whose full table needs tens of megabytes) under a 1 MiB
// budget. ns/op is the time from search start to the certified
// ErrMemoryBudget abort — the latency bound on a memory-governed solve
// detecting it cannot finish — and the recorded row carries the
// harvested certified lower bound and the peak table footprint, which
// must sit at the budget, not above it.
func BenchmarkMemBudgetAbort(b *testing.B) {
	p := fft3R3()
	b.ReportAllocs()
	var stats ExactStats
	m0 := benchharness.Before()
	for i := 0; i < b.N; i++ {
		_, err := Exact(p, ExactOptions{MaxTableBytes: 1 << 20, Stats: &stats})
		if !errors.Is(err, ErrMemoryBudget) {
			b.Fatalf("err = %v, want ErrMemoryBudget", err)
		}
	}
	b.ReportMetric(float64(stats.Expanded), "states/op")
	b.ReportMetric(float64(stats.TableBytes), "table-bytes/op")
	record(b, m0, benchharness.Record{
		StatesExpanded: stats.Expanded,
		DistinctStates: stats.Distinct,
		LowerScaled:    stats.LowerBound,
		PeakTableBytes: stats.TableBytes,
	})
}

// BenchmarkSearchSnapshotOverhead measures the introspection tax: the
// BenchmarkExactAStarFFT3R3 search with a live snapshot listener at the
// default 100ms cadence. Compare against the listener-less committed
// row — the delta is the cost of watching (sampler clock reads plus one
// histogram allocation per sample); the nil-listener path itself is
// guarded by TestNilListenerAllocGuard.
func BenchmarkSearchSnapshotOverhead(b *testing.B) {
	benchExact(b, fft3R3(), ExactOptions{Progress: func(ExactProgress) {}})
}

// Heuristic baseline.

func benchTopoBelady(b *testing.B, p Problem) {
	b.Helper()
	b.ReportAllocs()
	m0 := benchharness.Before()
	for i := 0; i < b.N; i++ {
		if _, err := TopoBelady(p); err != nil {
			b.Fatal(err)
		}
	}
	record(b, m0, benchharness.Record{})
}

func BenchmarkTopoBeladyPyramid5R4(b *testing.B) { benchTopoBelady(b, pyramid5R4()) }

func BenchmarkTopoBeladyFFT3R3(b *testing.B) { benchTopoBelady(b, fft3R3()) }

func BenchmarkTopoBeladyGrid44R3(b *testing.B) { benchTopoBelady(b, grid44R3()) }
