package anytime

import (
	"context"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// Anytime orchestration benchmarks. The deadline rows measure the
// certified interval a fixed budget buys on an instance too hard to
// close (fft(3) R=3 in nodel: seconds of exact search; the oneshot
// instance closes in a few hundred ms under symmetry), so their interesting
// outputs are upper/lower/optimal rather than ns/op (which tracks the
// deadline by construction). The full-budget rows measure orchestration
// overhead against the bare exact engine on instances it closes fast.

func benchAnytime(b *testing.B, p solve.Problem, opts Options) {
	b.Helper()
	b.ReportAllocs()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Solve(context.Background(), p, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.UpperScaled), "upper/op")
	b.ReportMetric(float64(res.LowerScaled), "lower/op")
}

// Deadline rows: the gap-vs-budget curve on the hard instance.

func BenchmarkAnytimeFFT3R3NoDelDeadline20ms(b *testing.B) {
	benchAnytime(b, solve.Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.NoDel), R: 3},
		Options{Budget: 20 * time.Millisecond})
}

func BenchmarkAnytimeFFT3R3NoDelDeadline100ms(b *testing.B) {
	benchAnytime(b, solve.Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.NoDel), R: 3},
		Options{Budget: 100 * time.Millisecond})
}

// Full-budget rows: orchestration overhead on instances the engines
// close (compare BenchmarkExactAStarPyramid5R4 in internal/solve).

func BenchmarkAnytimePyramid5R4Full(b *testing.B) {
	benchAnytime(b, solve.Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.Oneshot), R: 4},
		Options{})
}

func BenchmarkAnytimeGrid44R3Full(b *testing.B) {
	benchAnytime(b, solve.Problem{G: daggen.Grid(4, 4), Model: pebble.NewModel(pebble.Oneshot), R: 3},
		Options{})
}

// BenchmarkIntervalConvergenceFFT3R3NoDel measures what the interval
// cache buys across requests: two 300ms deadline-limited solves of
// fft(3) R=3 in nodel, the second warm-started from the first's certified interval
// (exactly what rbserve's interval cache does between repeated
// requests). gap1/op is the first solve's relative gap, gap2/op the
// gap of the merged (tightest) interval, as the cache would store it.
func BenchmarkIntervalConvergenceFFT3R3NoDel(b *testing.B) {
	p := solve.Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.NoDel), R: 3}
	b.ReportAllocs()
	var first, second Result
	for i := 0; i < b.N; i++ {
		var err error
		first, err = Solve(context.Background(), p, Options{Budget: 300 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		second, err = Solve(context.Background(), p, Options{
			Budget: 300 * time.Millisecond,
			Warm: &WarmStart{
				Moves:       first.Solution.Trace.Moves,
				LowerScaled: first.LowerScaled,
				Source:      "cache:" + first.Source,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Merge as the interval cache does: the tightest certified ends.
	upper, lower := second.UpperScaled, second.LowerScaled
	if first.UpperScaled < upper {
		upper = first.UpperScaled
	}
	if first.LowerScaled > lower {
		lower = first.LowerScaled
	}
	b.ReportMetric(first.Gap(), "gap1/op")
	b.ReportMetric(Gap(upper, lower), "gap2/op")
}
