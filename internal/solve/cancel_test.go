package solve

import (
	"errors"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestRootLowerBound checks the instant certificate: positive on
// instances with forced transfers, and never above the true optimum.
func TestRootLowerBound(t *testing.T) {
	p := Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	lb, err := RootLowerBound(p, HeuristicAuto)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Fatalf("root lower bound = %d, want > 0", lb)
	}
	opt, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if scaled := opt.Result.Cost.Scaled(p.Model); lb > scaled {
		t.Fatalf("root lower bound %d exceeds optimum %d", lb, scaled)
	}
}

// TestExactCancelHarvestsLowerBound cancels serial A* mid-search, from
// its first progress snapshot, and checks that the harvested frontier
// bound is a valid certificate: positive, and no larger than the true
// optimum. The snapshot comes at the first gate (1024 expansions) and
// the cancel is seen at the next, so the run is deterministic: its
// expansion count and bound are pinned, and they move only when the
// search itself changes.
func TestExactCancelHarvestsLowerBound(t *testing.T) {
	p := Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	cancel := make(chan struct{})
	canceled := false
	var stats ExactStats
	_, err := Exact(p, ExactOptions{
		Cancel: cancel,
		Stats:  &stats,
		Progress: func(ExactProgress) {
			if !canceled {
				canceled = true
				close(cancel)
			}
		},
		ProgressEvery: time.Nanosecond,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.Expanded != 2048 || stats.LowerBound != 14 {
		t.Fatalf("canceled after %d expansions with lower bound %d, want 2048 and 14", stats.Expanded, stats.LowerBound)
	}
	const fft3R3Optimum = 31 // cross-checked by the solver test suite
	if stats.LowerBound > fft3R3Optimum {
		t.Fatalf("harvested lower bound %d exceeds optimum %d", stats.LowerBound, fft3R3Optimum)
	}
}

// TestExactCancelEngines cancels serial A* before it starts on an
// instance small enough to finish, and checks the outcome is coherent:
// either ErrCanceled with a valid bound, or a completed optimal solve.
func TestExactCancelEngines(t *testing.T) {
	p := Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.Oneshot), R: 4}
	opt, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	optScaled := opt.Result.Cost.Scaled(p.Model)
	t.Run("serial", func(t *testing.T) {
		cancel := make(chan struct{})
		close(cancel) // fire before the search even starts
		var stats ExactStats
		sol, err := Exact(p, ExactOptions{Cancel: cancel, Stats: &stats})
		if err == nil {
			// The search may legitimately finish before observing the
			// cancellation; then the answer must be the optimum.
			if got := sol.Result.Cost.Scaled(p.Model); got != optScaled {
				t.Fatalf("finished with cost %d, want %d", got, optScaled)
			}
			return
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if stats.LowerBound < 0 || stats.LowerBound > optScaled {
			t.Fatalf("lower bound %d outside [0, %d]", stats.LowerBound, optScaled)
		}
	})
}

// TestExactCancelDuringSymmetrySetUp cancels before the call on a large
// symmetric instance (|Aut| = 9,216), whose canonical labeling and
// automorphism group search take over ten milliseconds. The set-up
// polls Cancel, so the search stops before its first expansion and
// reports the caller's already-certified floor.
func TestExactCancelDuringSymmetrySetUp(t *testing.T) {
	p := Problem{G: daggen.RandomLayered(20, 20, 2, 1), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	cancel := make(chan struct{})
	close(cancel)
	var stats ExactStats
	_, err := Exact(p, ExactOptions{Cancel: cancel, InitialLowerBound: 7, Stats: &stats})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.Expanded != 0 {
		t.Fatalf("expanded %d states after a cancel before the call, want 0", stats.Expanded)
	}
	if stats.LowerBound != 7 {
		t.Fatalf("lower bound %d, want the initial 7", stats.LowerBound)
	}
}

// TestExactDFSCancelAndCallbacks cancels an IDA* run and checks the
// partial certificate: stats carry a lower bound and an incumbent, and
// the last Progress snapshot carries the harvested lower bound (the
// bound moves only at pass completion, and every completion emits).
func TestExactDFSCancelAndCallbacks(t *testing.T) {
	p := Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	cancel := make(chan struct{})
	var stats ExactDFSStats
	var snaps []ExactProgress
	opts := ExactDFSOptions{
		Cancel:        cancel,
		Stats:         &stats,
		Progress:      func(sn ExactProgress) { snaps = append(snaps, sn) },
		ProgressEvery: time.Millisecond,
	}
	done := make(chan error, 1)
	go func() {
		_, err := ExactDFS(p, opts)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(cancel)
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the DFS")
	}
	if err == nil {
		return // finished before the cancel landed: nothing to harvest
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.LowerBound <= 0 {
		t.Fatalf("lower bound = %d, want > 0", stats.LowerBound)
	}
	if stats.Incumbent < stats.LowerBound {
		t.Fatalf("incumbent %d below lower bound %d", stats.Incumbent, stats.LowerBound)
	}
	if len(snaps) == 0 {
		t.Fatal("no Progress snapshot before the cancel")
	}
	if last := snaps[len(snaps)-1]; last.LowerBound != stats.LowerBound {
		t.Fatalf("last snapshot lower bound %d, stats %d", last.LowerBound, stats.LowerBound)
	}
}
