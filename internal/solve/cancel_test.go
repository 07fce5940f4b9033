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

// TestExactCancelHarvestsLowerBound cancels a serial A* run immediately
// and checks that the harvested frontier bound is a valid certificate:
// positive, and no larger than the true optimum.
func TestExactCancelHarvestsLowerBound(t *testing.T) {
	p := Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	cancel := make(chan struct{})
	var stats ExactStats
	done := make(chan error, 1)
	go func() {
		_, err := Exact(p, ExactOptions{Cancel: cancel, Stats: &stats})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the search")
	}
	if stats.LowerBound <= 0 {
		t.Fatalf("harvested lower bound = %d, want > 0", stats.LowerBound)
	}
	const fft3R3Optimum = 31 // cross-checked by the solver test suite
	if stats.LowerBound > fft3R3Optimum {
		t.Fatalf("harvested lower bound %d exceeds optimum %d", stats.LowerBound, fft3R3Optimum)
	}
}

// TestExactCancelEngines cancels each engine mid-run on an instance
// small enough to finish, and checks every outcome is coherent: either
// ErrCanceled with a valid bound, or a completed optimal solve.
func TestExactCancelEngines(t *testing.T) {
	p := Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.Oneshot), R: 4}
	opt, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	optScaled := opt.Result.Cost.Scaled(p.Model)
	for _, tc := range []struct {
		name string
		opts ExactOptions
	}{
		{"serial", ExactOptions{}},
		{"async", ExactOptions{Parallel: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cancel := make(chan struct{})
			close(cancel) // fire before the search even starts
			opts := tc.opts
			var stats ExactStats
			opts.Cancel = cancel
			opts.Stats = &stats
			sol, err := Exact(p, opts)
			if err == nil {
				// The engine may legitimately finish before observing the
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
}

// TestExactDFSCancelAndCallbacks cancels an IDA* run and checks the
// partial certificate: stats carry a lower bound and an incumbent, and
// OnIncumbent delivered a replayable trace for that incumbent.
func TestExactDFSCancelAndCallbacks(t *testing.T) {
	p := Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	cancel := make(chan struct{})
	var stats ExactDFSStats
	var gotInc int64
	var gotMoves []pebble.Move
	passes := 0
	opts := ExactDFSOptions{
		Cancel: cancel,
		Stats:  &stats,
		OnIncumbent: func(scaled int64, moves []pebble.Move) {
			gotInc, gotMoves = scaled, moves
		},
		Progress: func(st ExactDFSStats) { passes++ },
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
	if gotMoves != nil {
		tr := &pebble.Trace{Model: p.Model, R: p.R, Convention: p.Convention, Moves: gotMoves}
		res, rerr := tr.Run(p.G)
		if rerr != nil {
			t.Fatalf("incumbent trace does not replay: %v", rerr)
		}
		if got := res.Cost.Scaled(p.Model); got != gotInc {
			t.Fatalf("incumbent trace costs %d, callback said %d", got, gotInc)
		}
	}
}
