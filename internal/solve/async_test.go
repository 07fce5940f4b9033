package solve

import (
	"errors"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestAsyncMatchesSerialEverywhere is the async-termination property
// test: the asynchronous HDA* engine must prove exactly the serial
// optimum across all four models, every convention combination and
// 1/2/4/8 workers. A termination-detection bug (declaring done with
// proposals in flight) or a throttle bug that turned into a correctness
// gate would surface here as a cost mismatch or a hang.
func TestAsyncMatchesSerialEverywhere(t *testing.T) {
	conventions := []pebble.Convention{
		{},
		{SourcesStartBlue: true},
		{SinksMustBeBlue: true},
		{SourcesStartBlue: true, SinksMustBeBlue: true},
	}
	for seed := int64(0); seed < 3; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		for _, kind := range pebble.AllKinds() {
			m := pebble.NewModel(kind)
			for _, conv := range conventions {
				p := Problem{G: g, Model: m, R: r, Convention: conv}
				serial, serr := Exact(p, ExactOptions{})
				for _, workers := range []int{1, 2, 4, 8} {
					par, perr := Exact(p, ExactOptions{Parallel: workers})
					if (serr == nil) != (perr == nil) {
						t.Fatalf("seed %d %v %s workers=%d: error mismatch: serial %v, async %v",
							seed, kind, convName(conv), workers, serr, perr)
					}
					if serr != nil {
						continue
					}
					if par.Result.Cost.Scaled(m) != serial.Result.Cost.Scaled(m) {
						t.Errorf("seed %d %v %s workers=%d: async cost %v != serial %v",
							seed, kind, convName(conv), workers, par.Result.Cost, serial.Result.Cost)
					}
				}
			}
		}
	}
}

// TestAsyncSlowShard injects heavy latency into one shard and checks
// the engine still terminates with the exact optimum: the slow shard
// cannot be skipped (its mailboxes must drain, its frontier must be
// exhausted) and the counting protocol must not declare termination
// around it.
func TestAsyncSlowShard(t *testing.T) {
	defer func() { asyncTestDelay = nil }()
	asyncTestDelay = func(worker int) {
		if worker == 1 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	for _, kind := range []pebble.ModelKind{pebble.Oneshot, pebble.Base} {
		g := daggen.Pyramid(3)
		p := Problem{G: g, Model: pebble.NewModel(kind), R: 3}
		asyncTestDelay = nil
		serial, err := Exact(p, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		asyncTestDelay = func(worker int) {
			if worker == 1 {
				time.Sleep(200 * time.Microsecond)
			}
		}
		par, err := Exact(p, ExactOptions{Parallel: 4})
		if err != nil {
			t.Fatalf("%v slow shard: %v", kind, err)
		}
		// Scaled cost, not the full struct: in the base model computes
		// are free, so equally-optimal witnesses may differ in them.
		if par.Result.Cost.Scaled(p.Model) != serial.Result.Cost.Scaled(p.Model) {
			t.Fatalf("%v slow shard: cost %v != serial %v", kind, par.Result.Cost, serial.Result.Cost)
		}
	}
}

// TestAsyncStateLimit checks the budget error surfaces from the async
// engine (the abort must reach every worker and the coordinator).
func TestAsyncStateLimit(t *testing.T) {
	g := daggen.Pyramid(3)
	_, err := Exact(Problem{G: g, Model: pebble.NewModel(pebble.Base), R: 3},
		ExactOptions{MaxStates: 5, Parallel: 4})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

// TestAsyncStatsPopulated checks the stats out-parameter from the async
// engine.
func TestAsyncStatsPopulated(t *testing.T) {
	var st ExactStats
	g := daggen.Pyramid(3)
	_, err := Exact(Problem{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3},
		ExactOptions{Parallel: 4, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Expanded <= 0 || st.Pushed <= 0 || st.Distinct <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}
