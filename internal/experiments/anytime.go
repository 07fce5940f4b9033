package experiments

import (
	"context"
	"fmt"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// AnytimeParams configures the anytime ablation.
type AnytimeParams struct {
	// Deadline is the top rung of the budget ladder, which spans two
	// orders of magnitude below it, so the gap-vs-budget curve keeps its
	// shape at any scale.
	Deadline time.Duration
}

// DefaultAnytimeParams tops the ladder out at 200ms.
func DefaultAnytimeParams() AnytimeParams { return AnytimeParams{Deadline: 200 * time.Millisecond} }

// fft3R3Optimum is the proved oneshot optimum of fft(3) at R=3.
const fft3R3Optimum = 31

// AblationAnytime measures the anytime orchestrator's convergence: the
// certified [lower, upper] interval as a function of the deadline on
// fft(3) R=3, plus an easy control instance that gets a full exact
// solve. The checks do not depend on host speed: every interval must
// contain the known optimum, and the control must close. How far the gap
// shrinks at each rung depends on the host, so the rows show it and no
// check reads it.
func AblationAnytime(p AnytimeParams) *Report {
	rep := &Report{
		Claim:  "(design choice) deadlines yield certified [lower, upper] intervals whose gap shrinks with budget, instead of solver errors",
		Header: []string{"workload", "deadline", "lower", "upper", "gap%", "optimal", "source"},
	}
	row := func(name string, d time.Duration, res anytime.Result) {
		rep.Rows = append(rep.Rows, []string{
			name, d.String(),
			fmt.Sprintf("%d", res.LowerScaled), fmt.Sprintf("%d", res.UpperScaled),
			ftoa(100 * res.Gap()), btoa(res.Optimal), res.Source,
		})
	}
	hard := solve.Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	contains := true
	for _, d := range []time.Duration{p.Deadline / 100, p.Deadline / 10, p.Deadline} {
		res, err := anytime.Solve(context.Background(), hard, anytime.Options{Budget: d})
		if err != nil {
			panic(err)
		}
		contains = contains && res.LowerScaled >= 0 && res.LowerScaled <= fft3R3Optimum && res.UpperScaled >= fft3R3Optimum
		row("fft(3) R=3", d, res)
	}

	// Control: an instance the exact engines close well inside the
	// smallest budgets — the interval must collapse to a proven optimum.
	easy := solve.Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	res, err := anytime.Solve(context.Background(), easy, anytime.Options{Budget: p.Deadline})
	if err != nil {
		panic(err)
	}
	row("pyramid(4) R=3", p.Deadline, res)
	rep.check(fmt.Sprintf("every fft(3) interval contains the optimum %d", fft3R3Optimum), contains)
	rep.check("the control instance closes to a proven optimum", res.Optimal && res.LowerScaled == res.UpperScaled)
	return rep
}
