package solve

import (
	"errors"
	"testing"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestMaxTableBytesAllEngines runs every exact engine on fft(3) R=3
// (whose full solve needs tens of megabytes of table) under a table
// budget far below that, and checks the memory-governance contract: the
// search aborts with ErrMemoryBudget instead of growing without bound,
// and the harvested Stats still carry a certified lower bound — a
// partial interval, not a wasted solve.
func TestMaxTableBytesAllEngines(t *testing.T) {
	p := Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	const fft3R3Optimum = 31 // cross-checked by the solver test suite
	const budget = 1 << 17   // 128 KiB: trips within milliseconds

	for _, tc := range []struct {
		name string
		opts ExactOptions
	}{
		{"serial", ExactOptions{}},
		{"async", ExactOptions{Parallel: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			var stats ExactStats
			opts.MaxTableBytes = budget
			opts.Stats = &stats
			_, err := Exact(p, opts)
			if !errors.Is(err, ErrMemoryBudget) {
				t.Fatalf("err = %v, want ErrMemoryBudget", err)
			}
			if stats.LowerBound <= 0 || stats.LowerBound > fft3R3Optimum {
				t.Fatalf("harvested lower bound %d outside (0, %d]", stats.LowerBound, fft3R3Optimum)
			}
		})
	}

	t.Run("ida-star", func(t *testing.T) {
		var stats ExactDFSStats
		_, err := ExactDFS(p, ExactDFSOptions{MaxTableBytes: budget, Stats: &stats})
		if !errors.Is(err, ErrMemoryBudget) {
			t.Fatalf("err = %v, want ErrMemoryBudget", err)
		}
		// The interval is still a certificate: the lower bound never
		// overshoots the optimum (fft(3) R=3's root estimate is 0, so it
		// rises only with completed IDA* passes), and the incumbent is
		// achievable, so it is at least the optimum.
		if stats.LowerBound < 0 || stats.LowerBound > fft3R3Optimum {
			t.Fatalf("harvested lower bound %d outside [0, %d]", stats.LowerBound, fft3R3Optimum)
		}
		if stats.Incumbent < fft3R3Optimum {
			t.Fatalf("incumbent %d below optimum %d", stats.Incumbent, fft3R3Optimum)
		}
	})
}

// TestMaxTableBytesGenerous checks a budget well above the instance's
// needs never trips: the solve completes and proves the optimum.
func TestMaxTableBytesGenerous(t *testing.T) {
	p := Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	opt, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := opt.Result.Cost.Scaled(p.Model)
	for _, tc := range []struct {
		name string
		opts ExactOptions
	}{
		{"serial", ExactOptions{}},
		{"async", ExactOptions{Parallel: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.MaxTableBytes = 1 << 30
			sol, err := Exact(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := sol.Result.Cost.Scaled(p.Model); got != want {
				t.Fatalf("cost %d under generous budget, want %d", got, want)
			}
		})
	}
	sol, err := ExactDFS(p, ExactDFSOptions{MaxTableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Result.Cost.Scaled(p.Model); got != want {
		t.Fatalf("dfs cost %d under generous budget, want %d", got, want)
	}
}
