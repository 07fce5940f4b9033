package solve

import (
	"errors"
	"testing"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/reduce"
	"rbpebble/internal/ugraph"
)

// Solver microbenchmarks on the canonical instances in the oneshot
// model; run them with
//
//	go test ./internal/solve -run '^$' -bench . -benchtime 1x -benchmem
//
// Every exact benchmark runs a row of golden_test.go and fails when its
// counts differ from the pinned ones.

// Serial engine, heuristic on and off.

func BenchmarkExactAStarPyramid5R4(b *testing.B) { benchGolden(b, "ExactAStarPyramid5R4") }

func BenchmarkExactDijkstraPyramid5R4(b *testing.B) { benchGolden(b, "ExactDijkstraPyramid5R4") }

func BenchmarkExactAStarPyramid5R4NoDel(b *testing.B) { benchGolden(b, "ExactAStarPyramid5R4NoDel") }

func BenchmarkExactAStarFFT3R3(b *testing.B) { benchGolden(b, "ExactAStarFFT3R3") }

func BenchmarkExactDijkstraFFT3R3(b *testing.B) { benchGolden(b, "ExactDijkstraFFT3R3") }

func BenchmarkExactAStarGrid44R3(b *testing.B) { benchGolden(b, "ExactAStarGrid44R3") }

func BenchmarkExactDijkstraGrid44R3(b *testing.B) { benchGolden(b, "ExactDijkstraGrid44R3") }

// The pyramid at R = Δ+1, where the S-partition packing binds.

func BenchmarkExactAStarPyramid5R3(b *testing.B) { benchGolden(b, "ExactAStarPyramid5R3") }

// The Theorem 2 reduction of K6 in oneshot.

func BenchmarkExactAStarK6Oneshot(b *testing.B) { benchGolden(b, "ExactAStarK6Oneshot") }

// Depth-first exact solver (IDA*).

func BenchmarkExactIDAStarPyramid5R4(b *testing.B) { benchGolden(b, "ExactIDAStarPyramid5R4") }

func BenchmarkExactIDAStarFFT3R3(b *testing.B) { benchGolden(b, "ExactIDAStarFFT3R3") }

func BenchmarkExactDFSGrid44R3(b *testing.B) { benchGolden(b, "ExactDFSGrid44R3") }

// BenchmarkMemBudgetAbort measures the memory-governance abort path:
// fft(3) R=3 (whose full table needs 2.4 MB even with symmetry) under a
// 1 MiB budget. ns/op is the time from search start to the certified
// ErrMemoryBudget abort — the latency bound on a memory-governed solve
// detecting it cannot finish.
func BenchmarkMemBudgetAbort(b *testing.B) { benchGolden(b, "MemBudgetAbort") }

// BenchmarkSearchSnapshotOverhead measures the introspection tax: the
// BenchmarkExactAStarFFT3R3 search with a live snapshot listener at the
// default 100ms cadence. The delta against that benchmark is the cost
// of watching (sampler clock reads plus one histogram allocation per
// sample); the nil-listener path itself is guarded by
// TestNilListenerAllocGuard.
func BenchmarkSearchSnapshotOverhead(b *testing.B) { benchGolden(b, "SearchSnapshotOverhead") }

// BenchmarkLowerBound measures the lower bound on its own: ns per
// estimate over every distinct state that serial A* stores on
// pyramid(5) R=4 oneshot and on the random layered 5x5 DAG of seed 6
// (oneshot, R = Δ+1). The states are recorded from a full solve, in
// the canonical labeling the search evaluated them in, and each is
// checked against the h the search cached for it.
func BenchmarkLowerBound(b *testing.B) {
	layered := daggen.RandomLayered(5, 5, 2, 6)
	for _, bc := range []struct {
		name string
		p    Problem
	}{
		{"Pyramid5R4", pyramid5R4()},
		{"Layered5x5s6", Problem{G: layered, Model: pebble.NewModel(pebble.Oneshot), R: pebble.MinFeasibleR(layered)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			lb, keys := recordLowerBoundStates(b, bc.p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					lbSink, _ = lb.estimate(k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/estimate")
			b.ReportMetric(float64(len(keys)), "states")
		})
	}
}

var lbSink int64

// recordLowerBoundStates solves p with serial A* and returns the lower
// bound the search used with every state key its table holds.
func recordLowerBoundStates(b *testing.B, p Problem) (*lowerBound, []pebble.PackedKey) {
	b.Helper()
	start, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
	if err != nil {
		b.Fatal(err)
	}
	var m serialMem
	if _, err := exactSerial(p, ExactOptions{}, start, 50_000_000, &m); err != nil {
		b.Fatal(err)
	}
	// The search ran on this same deterministic canonical form.
	q, qstart, _ := symmetricForm(p, start, func() bool { return false })
	lb := newLowerBound(q, HeuristicAuto, qstart.AppendPacked(nil))
	keys := make([]pebble.PackedKey, m.table.count())
	for ref := range keys {
		keys[ref] = append(pebble.PackedKey(nil), m.table.key(int32(ref))...)
		if h, _ := lb.estimate(keys[ref]); h != m.table.h(int32(ref)) {
			b.Fatalf("state %d: estimate %d, the search cached %d", ref, h, m.table.h(int32(ref)))
		}
	}
	return lb, keys
}

// BenchmarkCanonize measures orbit representatives on their own: ns per
// canonize over the child keys, before canonization, that serial A*
// generates from a sample of the states it stores on fft(3) R=3 oneshot
// (a full solve) and on the Theorem 2 reduction of the Petersen graph
// (oneshot, R = 10, stopped after 3,000 expansions). The time includes
// copying each key into the buffer canonize rewrites.
func BenchmarkCanonize(b *testing.B) {
	petersen := reduce.NewHamPath(ugraph.Petersen())
	for _, bc := range []struct {
		name      string
		p         Problem
		maxStates int
		// expanded and distinct pin the recorded search.
		expanded, distinct int
	}{
		{"FFT3R3", fft3R3(), 50_000_000, 24731, 25463},
		{"HamPathPetersen", Problem{G: petersen.G, Model: pebble.NewModel(pebble.Oneshot), R: petersen.R}, 3000, 3001, 66303},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sym, keys := recordCanonizeKeys(b, bc.p, bc.maxStates, bc.expanded, bc.distinct)
			buf := make(pebble.PackedKey, len(keys[0]))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					copy(buf, k)
					sym.canonize(buf)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/canonize")
			b.ReportMetric(float64(len(keys)), "keys")
		})
	}
}

// canonizeSample is how many stored states recordCanonizeKeys expands.
const canonizeSample = 1000

// recordCanonizeKeys runs serial A* on p for at most maxStates
// expansions, checks its expanded and distinct counts, and returns the
// symmetry it searched with and the child keys, before canonization,
// of canonizeSample states spread over its table: the keys canonize
// sees during the search.
func recordCanonizeKeys(b *testing.B, p Problem, maxStates, expanded, distinct int) (*symmetry, []pebble.PackedKey) {
	b.Helper()
	start, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
	if err != nil {
		b.Fatal(err)
	}
	var m serialMem
	var stats ExactStats
	if _, err := exactSerial(p, ExactOptions{Stats: &stats}, start, maxStates, &m); err != nil && !errors.Is(err, ErrStateLimit) {
		b.Fatal(err)
	}
	if stats.Expanded != expanded || stats.Distinct != distinct {
		b.Fatalf("search expanded %d states (%d distinct), want %d (%d)", stats.Expanded, stats.Distinct, expanded, distinct)
	}
	// The search ran on this same deterministic canonical form.
	q, qstart, sym := symmetricForm(p, start, func() bool { return false })
	c := newSearchCtx(q, ExactOptions{}, qstart)
	st := qstart.Clone()
	var keys []pebble.PackedKey
	for i := 0; i < canonizeSample; i++ {
		key := m.table.key(int32(i * m.table.count() / canonizeSample))
		st.RestorePacked(key)
		c.moveBuf = c.moveBuf[:0]
		c.appendMoves(st, key)
		for _, mv := range c.moveBuf {
			undo, err := st.ApplyForUndo(mv)
			if err != nil {
				b.Fatal(err)
			}
			keys = append(keys, st.AppendPacked(nil))
			st.Undo(undo)
		}
	}
	return sym, keys
}

// Heuristic baseline.

func benchTopoBelady(b *testing.B, p Problem) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TopoBelady(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopoBeladyPyramid5R4(b *testing.B) { benchTopoBelady(b, pyramid5R4()) }

func BenchmarkTopoBeladyFFT3R3(b *testing.B) { benchTopoBelady(b, fft3R3()) }

func BenchmarkTopoBeladyGrid44R3(b *testing.B) { benchTopoBelady(b, grid44R3()) }
