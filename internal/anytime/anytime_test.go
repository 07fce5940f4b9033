package anytime

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// TestDeadlineFFT3 is the acceptance scenario: a 100ms deadline on
// fft(3) R=3 must yield a replay-valid trace, a nonzero certified lower
// bound, and a coherent interval.
func TestDeadlineFFT3(t *testing.T) {
	p := solve.Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	var mu sync.Mutex
	var snaps []Snapshot
	res, err := Solve(context.Background(), p, Options{
		Budget: 100 * time.Millisecond,
		OnProgress: func(s Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Trace == nil {
		t.Fatal("no incumbent trace")
	}
	// Replay the trace independently: the certificate must be real.
	rr, rerr := res.Solution.Trace.Run(p.G)
	if rerr != nil {
		t.Fatalf("incumbent trace does not replay: %v", rerr)
	}
	if got := rr.Cost.Scaled(p.Model); got != res.UpperScaled {
		t.Fatalf("trace cost %d != reported upper %d", got, res.UpperScaled)
	}
	if res.LowerScaled <= 0 {
		t.Fatalf("certified lower bound = %d, want > 0", res.LowerScaled)
	}
	const fft3R3Optimum = 31
	if res.LowerScaled > fft3R3Optimum || res.UpperScaled < fft3R3Optimum {
		t.Fatalf("interval [%d, %d] excludes the true optimum %d", res.LowerScaled, res.UpperScaled, fft3R3Optimum)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots streamed")
	}
	// The interval only ever tightens, snapshot to snapshot, within
	// each monotone stream; globally lower never exceeds upper.
	for _, s := range snaps {
		if s.LowerScaled > s.UpperScaled {
			t.Fatalf("snapshot with lower %d > upper %d (source %s)", s.LowerScaled, s.UpperScaled, s.Source)
		}
	}
}

// TestFullBudgetClosesGap checks gap -> 0 with an unconstrained budget
// on instances small enough to prove optimal quickly, cross-checking
// the incumbent against the exact solver.
func TestFullBudgetClosesGap(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    solve.Problem
	}{
		{"pyramid4-R3", solve.Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Oneshot), R: 3}},
		{"grid33-R3-nodel", solve.Problem{G: daggen.Grid(3, 3), Model: pebble.NewModel(pebble.NoDel), R: 3}},
		{"tree3-R3-base", solve.Problem{G: daggen.BinaryTree(3), Model: pebble.NewModel(pebble.Base), R: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(context.Background(), tc.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Optimal || res.Gap() != 0 {
				t.Fatalf("full budget did not close the gap: %v", res)
			}
			opt, err := solve.Exact(tc.p, solve.ExactOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := opt.Result.Cost.Scaled(tc.p.Model); res.UpperScaled != want {
				t.Fatalf("anytime optimum %d != exact optimum %d", res.UpperScaled, want)
			}
		})
	}
}

// TestFullBudgetFFT3 is the slow half of the acceptance criterion: with
// a full budget the fft(3) R=3 gap goes to exactly zero.
func TestFullBudgetFFT3(t *testing.T) {
	if testing.Short() {
		t.Skip("full exact solve")
	}
	p := solve.Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	res, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.UpperScaled != 31 || res.LowerScaled != 31 {
		t.Fatalf("want proven optimum 31, got %v", res)
	}
}

// TestZeroDeadlineStillCertifies: even a budget that expires before the
// refinement engines start must return the root bound and a heuristic
// incumbent (the heuristics are not interruptible mid-run).
func TestZeroDeadlineStillCertifies(t *testing.T) {
	// pyramid(4) at R=3 has a positive root bound (its capacity
	// certificates overflow the two spare red slots).
	p := solve.Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	res, err := Solve(context.Background(), p, Options{Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Trace == nil || res.LowerScaled <= 0 {
		t.Fatalf("degenerate budget lost the certificate: %v", res)
	}
}

// TestContextCancel: an already-canceled parent context still returns a
// certified heuristic answer (deadline semantics, not an error).
func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := solve.Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	res, err := Solve(ctx, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Trace == nil {
		t.Fatal("no incumbent under canceled context")
	}
}

// TestInfeasible: an instance with no completion reports an error, not
// a bogus certificate.
func TestInfeasible(t *testing.T) {
	// A 2-input node with R=3 under SourcesStartBlue is feasible; make
	// it infeasible by demanding computation of a source that starts
	// blue in the oneshot model with a sink convention that cannot be
	// met: simplest is R < Δ+1, rejected by state construction.
	p := solve.Problem{G: daggen.Pyramid(3), Model: pebble.NewModel(pebble.Oneshot), R: 1}
	if _, err := Solve(context.Background(), p, Options{}); err == nil {
		t.Fatal("want error for R too small")
	}
}

// TestRefinementOptionsSeedEngines is the warm-start plumbing proof the
// acceptance criterion asks for: the values handed to the exact engine
// (InitialLowerBound and PruneBound) must carry the certified interval
// at phase-2 start — which, for a warm-started solve, is the cached
// interval. The orchestrator's table budget and snapshot cadence must
// reach the engine too.
func TestRefinementOptionsSeedEngines(t *testing.T) {
	exact := refinementOptions(Options{MaxTableBytes: 1 << 20, snapshotEvery: 5 * time.Millisecond}, 31, 8)
	if exact.PruneBound != 32 {
		t.Fatalf("ExactOptions.PruneBound = %d, want 32", exact.PruneBound)
	}
	if exact.InitialLowerBound != 8 {
		t.Fatalf("ExactOptions.InitialLowerBound = %d, want 8", exact.InitialLowerBound)
	}
	if exact.MaxTableBytes != 1<<20 || exact.ProgressEvery != 5*time.Millisecond {
		t.Fatalf("ExactOptions budget/cadence = (%d, %v), want (%d, 5ms)", exact.MaxTableBytes, exact.ProgressEvery, 1<<20)
	}
	// No incumbent yet (MaxInt64 sentinel): no bound seeding at all.
	exact = refinementOptions(Options{}, math.MaxInt64, 5)
	if exact.PruneBound != 0 {
		t.Fatalf("sentinel incumbent leaked into bounds: prune=%d", exact.PruneBound)
	}
}

// TestWarmStartTightensInterval is the convergence contract: a second
// deadline-limited solve of the same hard instance, warm-started from
// the first one's certified interval, returns an interval at least as
// tight on both ends.
func TestWarmStartTightensInterval(t *testing.T) {
	// fft(3) R=3 in nodel: serial A* needs seconds to close it.
	p := solve.Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.NoDel), R: 3}
	first, err := Solve(context.Background(), p, Options{Budget: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if first.Optimal {
		t.Skip("host closed fft(3) nodel R=3 in 80ms; warm-start tightening not observable")
	}
	second, err := Solve(context.Background(), p, Options{
		Budget: 80 * time.Millisecond,
		Warm: &WarmStart{
			Moves:       first.Solution.Trace.Moves,
			LowerScaled: first.LowerScaled,
			Source:      "cache:" + first.Source,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.UpperScaled > first.UpperScaled {
		t.Fatalf("warm upper regressed: %d > %d", second.UpperScaled, first.UpperScaled)
	}
	if second.LowerScaled < first.LowerScaled {
		t.Fatalf("warm lower regressed: %d < %d", second.LowerScaled, first.LowerScaled)
	}
}

// TestWarmStartClosedIntervalShortCircuits: warm data that already
// closes the interval must return optimal without running any engine.
func TestWarmStartClosedIntervalShortCircuits(t *testing.T) {
	p := solve.Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	opt, err := solve.Exact(p, solve.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scaled := opt.Result.Cost.Scaled(p.Model)
	res, err := Solve(context.Background(), p, Options{
		Warm: &WarmStart{Moves: opt.Trace.Moves, LowerScaled: scaled, Source: "cache:astar"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.UpperScaled != scaled {
		t.Fatalf("closed warm interval not honored: %v", res)
	}
	if res.Source != "cache:astar" {
		t.Fatalf("source = %q, want the warm provenance", res.Source)
	}
	if res.Expanded != 0 {
		t.Fatalf("engine ran despite closed warm interval: expanded=%d", res.Expanded)
	}
}

// TestWarmStartCorruptTraceDegrades: an unreplayable warm trace must
// cost only the warm upper bound, never correctness.
func TestWarmStartCorruptTraceDegrades(t *testing.T) {
	p := solve.Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	res, err := Solve(context.Background(), p, Options{
		Warm: &WarmStart{
			Moves:       []pebble.Move{{Kind: pebble.Compute, Node: 0}, {Kind: pebble.Compute, Node: 0}},
			LowerScaled: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := solve.Exact(p, solve.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.UpperScaled != opt.Result.Cost.Scaled(p.Model) {
		t.Fatalf("corrupt warm trace broke the solve: %v", res)
	}
}
