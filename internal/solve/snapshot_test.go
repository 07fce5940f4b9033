package solve

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The snapshot suite drives every exact engine with a 1ns sampling
// cadence (so each emission gate fires) and checks the introspection
// stream's invariants: at least two snapshots on a non-trivial
// instance, non-decreasing expansion counts, internally consistent
// table/frontier numbers, the wire keys every client reads, and silence
// after the solve returns.

// snapshotRun collects the snapshots emitted while run executes. Any
// snapshot arriving after run returns fails the test.
type snapshotRun struct {
	mu    sync.Mutex
	snaps []ExactProgress
	done  atomic.Bool
}

func (c *snapshotRun) listener(t *testing.T) func(ExactProgress) {
	return func(pr ExactProgress) {
		if c.done.Load() {
			t.Error("snapshot emitted after the solve returned")
		}
		c.mu.Lock()
		c.snaps = append(c.snaps, pr)
		c.mu.Unlock()
	}
}

// checkStream validates the engine-independent invariants and returns
// the snapshots for engine-specific checks.
func (c *snapshotRun) checkStream(t *testing.T, engine string, finalExpanded int, finalTableBytes int64) []ExactProgress {
	t.Helper()
	snaps := c.snaps
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots, want >= 2", len(snaps))
	}
	keys := []string{"engine", "elapsed_ms", "expanded", "expansion_rate", "lower_bound",
		"frontier_size", "frontier_f", "frontier_g", "table_states", "table_bytes"}
	if engine == "ida-star" {
		keys = append(keys, "threshold", "pass")
	}
	prev := int64(-1)
	for i, sn := range snaps {
		b, err := json.Marshal(sn)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		var wire map[string]any
		if err := json.Unmarshal(b, &wire); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		for _, k := range keys {
			if _, ok := wire[k]; !ok {
				t.Errorf("snapshot %d: JSON lacks key %q: %s", i, k, b)
			}
		}
		if sn.Engine != engine {
			t.Errorf("snapshot %d: engine %q, want %q", i, sn.Engine, engine)
		}
		if sn.Expanded < prev {
			t.Errorf("snapshot %d: expanded %d < previous %d (not monotone)", i, sn.Expanded, prev)
		}
		prev = sn.Expanded
		if sn.ElapsedMS <= 0 {
			t.Errorf("snapshot %d: non-positive elapsed %v", i, sn.ElapsedMS)
		}
		if sn.Rate < 0 {
			t.Errorf("snapshot %d: negative rate %f", i, sn.Rate)
		}
		if sn.FrontierF < -1 || sn.FrontierG < -1 {
			t.Errorf("snapshot %d: frontier (%d, %d) below the -1 sentinel", i, sn.FrontierF, sn.FrontierG)
		}
		if sn.TableLoad < 0 || sn.TableLoad > 1 {
			t.Errorf("snapshot %d: table load %f outside [0, 1]", i, sn.TableLoad)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Expanded > int64(finalExpanded) {
		t.Errorf("last snapshot expanded %d > final stats %d", last.Expanded, finalExpanded)
	}
	if last.TableBytes <= 0 || last.TableBytes > finalTableBytes {
		t.Errorf("last snapshot table bytes %d inconsistent with final stats %d", last.TableBytes, finalTableBytes)
	}
	return snaps
}

func TestSnapshotsSerialAStar(t *testing.T) {
	var c snapshotRun
	var stats ExactStats
	_, err := Exact(pyramid5R4(), ExactOptions{
		Progress:      c.listener(t),
		ProgressEvery: time.Nanosecond,
		Stats:         &stats,
	})
	c.done.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	snaps := c.checkStream(t, "astar", stats.Expanded, stats.TableBytes)
	const optimum = 8 // pyramid(5) R=4, pinned in the golden table
	for i, sn := range snaps {
		// The streamed lower bound is a certificate: never above the
		// optimum, and never below an earlier one.
		if sn.LowerBound > optimum {
			t.Errorf("snapshot %d: lower bound %d exceeds the optimum %d", i, sn.LowerBound, optimum)
		}
		if i > 0 && sn.LowerBound < snaps[i-1].LowerBound {
			t.Errorf("snapshot %d: lower bound %d regressed from %d", i, sn.LowerBound, snaps[i-1].LowerBound)
		}
		if sn.FrontierSize > 0 {
			if sn.FrontierF < 0 {
				t.Errorf("snapshot %d: open queue non-empty but no frontier f", i)
			}
			if len(sn.OpenBuckets) == 0 {
				t.Errorf("snapshot %d: open queue non-empty but no histogram", i)
				continue
			}
			sum := 0
			for _, bk := range sn.OpenBuckets {
				sum += bk.Count
			}
			if len(sn.OpenBuckets) < maxSnapshotBuckets && int64(sum) != sn.FrontierSize {
				t.Errorf("snapshot %d: histogram sums to %d, open size %d", i, sum, sn.FrontierSize)
			}
			if sn.OpenBuckets[0].F != sn.FrontierF {
				t.Errorf("snapshot %d: first bucket f %d != frontier f %d", i, sn.OpenBuckets[0].F, sn.FrontierF)
			}
		}
		if sn.Distinct <= 0 {
			t.Errorf("snapshot %d: no distinct states", i)
		}
	}
}

func TestSnapshotsIDAStar(t *testing.T) {
	var c snapshotRun
	var stats ExactDFSStats
	_, err := ExactDFS(pyramid5R4(), ExactDFSOptions{
		Progress:      c.listener(t),
		ProgressEvery: time.Nanosecond,
		Stats:         &stats,
	})
	c.done.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	snaps := c.checkStream(t, "ida-star", stats.Visits, int64(stats.TableBytes))
	for i, sn := range snaps {
		if sn.Threshold <= 0 {
			t.Errorf("snapshot %d: non-positive IDA* threshold %d", i, sn.Threshold)
		}
		if sn.Pass < 1 {
			t.Errorf("snapshot %d: pass %d < 1", i, sn.Pass)
		}
	}
}

// TestSnapshotsNilListener pins the zero-overhead contract: without a
// Progress listener no sampler is created and the solve runs exactly as
// before (this is also the configuration the benchmark guard measures).
func TestSnapshotsNilListener(t *testing.T) {
	var stats ExactStats
	if _, err := Exact(pyramid5R4(), ExactOptions{Stats: &stats, ProgressEvery: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	if stats.Expanded == 0 {
		t.Fatal("solve did not run")
	}
}

// TestNilListenerAllocGuard pins the contract in allocation terms: a
// listener-less serial A* solve must stay near its baseline (the
// pyramid(5) R=4 solve measured here sits at ~225 allocs/op). The bound
// has headroom for runtime noise, not for a regression that attaches
// sampling machinery to runs nobody is watching.
func TestNilListenerAllocGuard(t *testing.T) {
	p := pyramid5R4()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Exact(p, ExactOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Errorf("nil-listener serial A* allocated %.0f times/op, want <= 400 (baseline ~225)", allocs)
	}
}
