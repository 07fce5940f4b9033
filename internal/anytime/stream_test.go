package anytime

import (
	"context"
	"sync"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// snapshotLog collects OnProgress snapshots under a lock (the callback
// contract allows concurrent solver goroutines).
type snapshotLog struct {
	mu    sync.Mutex
	snaps []Snapshot
}

func (l *snapshotLog) add(s Snapshot) {
	l.mu.Lock()
	l.snaps = append(l.snaps, s)
	l.mu.Unlock()
}

func (l *snapshotLog) all() []Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Snapshot(nil), l.snaps...)
}

// TestParallelStreamsCertifiedLowerBound is the acceptance test for the
// engine's mid-flight certified bound: the orchestrator must observe at
// least one certified lower-bound improvement from serial A* BEFORE the
// solve completes. The instance closes optimally with a gap between the
// root bound and the optimum, so any "astar" snapshot with a lower
// bound strictly below the optimum can only have come from the
// engine's in-flight certified f-min stream (the completion-time
// harvest reports the optimum itself). The solve runs exactly one exact
// engine: every search snapshot names astar, and no depth-first visits
// are reported.
func TestParallelStreamsCertifiedLowerBound(t *testing.T) {
	// pyramid(6) R=4: serial A* with symmetry closes pyramid(5) R=3 in
	// under 1024 expansions, before its first sampling gate.
	p := solve.Problem{G: daggen.Pyramid(6), Model: pebble.NewModel(pebble.Oneshot), R: 4}
	root, err := solve.RootLowerBound(p, solve.HeuristicAuto)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("astar", func(t *testing.T) {
		var log snapshotLog
		var mu sync.Mutex
		var engines []string
		res, err := Solve(context.Background(), p, Options{
			OnProgress:    log.add,
			snapshotEvery: time.Millisecond,
			OnSearch: func(sn obs.SearchSnapshot) {
				mu.Lock()
				engines = append(engines, sn.Engine)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("full-budget solve not optimal: %v", res)
		}
		if root >= res.LowerScaled {
			t.Fatalf("instance closed at the root bound (%d >= %d); pick a harder one", root, res.LowerScaled)
		}
		if res.Visits != 0 {
			t.Fatalf("Result.Visits = %d, want 0: a depth-first engine ran", res.Visits)
		}

		mu.Lock()
		defer mu.Unlock()
		if len(engines) == 0 {
			t.Fatal("no search snapshots under a 1ms cadence")
		}
		for _, e := range engines {
			if e != "astar" {
				t.Fatalf("search snapshot from engine %q, want only astar", e)
			}
		}

		midflight := 0
		for _, s := range log.all() {
			if s.Source == "astar" && s.LowerScaled > root && s.LowerScaled < res.UpperScaled {
				midflight++
			}
		}
		if midflight == 0 {
			t.Fatalf("no mid-flight certified lower-bound improvement observed; snapshots: %+v", log.all())
		}
	})
}

// TestProgressStreamMonotoneNoDuplicates checks the emission contract:
// every delivered snapshot strictly improves at least one end of the
// interval and regresses neither: no duplicate or out-of-order
// (upper, lower) pairs.
func TestProgressStreamMonotoneNoDuplicates(t *testing.T) {
	p := solve.Problem{G: daggen.Pyramid(5), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	var log snapshotLog
	res, err := Solve(context.Background(), p, Options{OnProgress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatalf("full-budget solve not optimal: %v", res)
	}
	snaps := log.all()
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots at all")
	}
	for i := 1; i < len(snaps); i++ {
		prev, cur := snaps[i-1], snaps[i]
		if cur.UpperScaled > prev.UpperScaled {
			t.Fatalf("snapshot %d regressed upper: %+v -> %+v", i, prev, cur)
		}
		if cur.LowerScaled < prev.LowerScaled {
			t.Fatalf("snapshot %d regressed lower: %+v -> %+v", i, prev, cur)
		}
		if cur.UpperScaled == prev.UpperScaled && cur.LowerScaled == prev.LowerScaled {
			t.Fatalf("snapshot %d duplicates the interval: %+v -> %+v", i, prev, cur)
		}
	}
	last := snaps[len(snaps)-1]
	if last.LowerScaled > res.UpperScaled {
		t.Fatalf("final streamed lower %d exceeds proven optimum %d", last.LowerScaled, res.UpperScaled)
	}
}
