package refine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rbpebble/internal/instcache"
)

func interval(key string, tier int, lower, upper int64) instcache.Entry {
	return instcache.Entry{Key: key, Value: instcache.Value{
		LowerScaled: lower, UpperScaled: upper, Tier: tier,
	}}
}

func TestCandidatesOrderingAndFilters(t *testing.T) {
	entries := []instcache.Entry{
		// wide gap (40) with lots of headroom: top priority.
		interval("wide", 3, 10, 50),
		// wider gap (60) but almost no headroom left.
		interval("exhausted", 11, 20, 80),
		// the cache's one merged row for a key: gap 10 at tier 6.
		interval("merged", 6, 20, 30),
		// proven optimal: never a candidate.
		{Key: "done", Value: instcache.Value{LowerScaled: 7, UpperScaled: 7, Optimal: true}},
		// closed interval: promoted on next touch, nothing to refine.
		interval("closed", 5, 9, 9),
		// at the ceiling: no headroom.
		interval("ceiling", 12, 0, 100),
	}
	cands := Candidates(entries, 12)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates %+v, want 3", len(cands), cands)
	}
	if cands[0].Key != "wide" || cands[0].Tier != 4 || cands[0].GapScaled != 40 {
		t.Fatalf("top candidate = %+v, want wide tier 4 gap 40", cands[0])
	}
	// wide: 40*9 = 360; exhausted: 60*1 = 60; merged: 10*6 = 60 — the
	// tie breaks by key ("exhausted" < "merged").
	if cands[1].Key != "exhausted" || cands[2].Key != "merged" {
		t.Fatalf("tail order %q, %q; want exhausted, merged", cands[1].Key, cands[2].Key)
	}
	if cands[2].Tier != 7 {
		t.Fatalf("merged escalates to tier %d, want 7 (above its widest stored tier)", cands[2].Tier)
	}
}

// TestRefinerTightensWhenIdle drives a full loop: one wide interval in
// the export, an idle gate, and a Solve that tightens — the refiner
// must run it, count the tightening and accumulate the gap reduction.
func TestRefinerTightensWhenIdle(t *testing.T) {
	var solved atomic.Int64
	r := New(Config{
		Export: func() []instcache.Entry {
			if solved.Load() > 0 {
				return nil // tightened to closed: nothing left
			}
			return []instcache.Entry{interval("k", 3, 10, 50)}
		},
		Solve: func(ctx context.Context, key string, tier int) (int64, error) {
			if key != "k" || tier != 4 {
				t.Errorf("solve(%q, %d), want (k, 4)", key, tier)
			}
			solved.Add(1)
			return 5, nil
		},
		Interval: 5 * time.Millisecond,
	})
	defer r.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for solved.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	runs, tightened, preempted, gapSum := r.Counters()
	if runs == 0 || tightened == 0 {
		t.Fatalf("runs=%d tightened=%d, want both > 0", runs, tightened)
	}
	if preempted != 0 {
		t.Fatalf("preempted=%d, want 0", preempted)
	}
	if gapSum != 35 {
		t.Fatalf("gapSum=%d, want 35 (gap 40 -> 5)", gapSum)
	}
}

// TestRefinerAdmissionGate: while Busy reports true the refiner must
// not schedule anything.
func TestRefinerAdmissionGate(t *testing.T) {
	var solves atomic.Int64
	busy := atomic.Bool{}
	busy.Store(true)
	r := New(Config{
		Export: func() []instcache.Entry { return []instcache.Entry{interval("k", 3, 10, 50)} },
		Solve: func(ctx context.Context, key string, tier int) (int64, error) {
			solves.Add(1)
			return 40, nil
		},
		Busy:     busy.Load,
		Interval: 2 * time.Millisecond,
	})
	defer r.Stop()
	time.Sleep(50 * time.Millisecond)
	if n := solves.Load(); n != 0 {
		t.Fatalf("refiner ran %d solves while busy, want 0", n)
	}
	busy.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for solves.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if solves.Load() == 0 {
		t.Fatal("refiner never ran after the gate opened")
	}
}

// TestRefinerPreempt: an in-flight refinement is canceled by Preempt;
// the run is counted as preempted, and a partial tightening still
// counts as a tightening.
func TestRefinerPreempt(t *testing.T) {
	started := make(chan struct{})
	r := New(Config{
		Export: func() []instcache.Entry { return []instcache.Entry{interval("k", 3, 10, 50)} },
		Solve: func(ctx context.Context, key string, tier int) (int64, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()   // block until preempted
			return 30, nil // partial interval: tightened, not closed
		},
		Interval: 2 * time.Millisecond,
	})
	defer r.Stop()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("refinement never started")
	}
	r.Preempt()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, tightened, preempted, _ := r.Counters()
		if preempted >= 1 && tightened >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("preempted=%d tightened=%d, want both >= 1", preempted, tightened)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRefinerOwnershipAndResolvable: non-owned and unresolvable keys
// are never solved.
func TestRefinerOwnershipAndResolvable(t *testing.T) {
	var mu atomic.Value
	mu.Store("")
	r := New(Config{
		Export: func() []instcache.Entry {
			return []instcache.Entry{
				interval("owned", 3, 10, 50),
				interval("foreign", 3, 0, 100),
				interval("forgotten", 3, 0, 100),
			}
		},
		Owns:       func(key string) bool { return key != "foreign" },
		Resolvable: func(key string) bool { return key != "forgotten" },
		Solve: func(ctx context.Context, key string, tier int) (int64, error) {
			if key != "owned" {
				t.Errorf("refined %q, want only owned keys", key)
			}
			mu.Store(key)
			return 1, nil
		},
		Interval: 2 * time.Millisecond,
	})
	defer r.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for mu.Load() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if mu.Load() != "owned" {
		t.Fatal("owned key never refined")
	}
}

// TestRefinerErrorCooldown: a key whose solve errors is backed off
// instead of monopolizing every cycle.
func TestRefinerErrorCooldown(t *testing.T) {
	var fails atomic.Int64
	r := New(Config{
		Export: func() []instcache.Entry { return []instcache.Entry{interval("bad", 3, 10, 50)} },
		Solve: func(ctx context.Context, key string, tier int) (int64, error) {
			fails.Add(1)
			return 0, errors.New("unknown key")
		},
		Interval: time.Millisecond,
	})
	defer r.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for fails.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fails.Load() == 0 {
		t.Fatal("bad key never attempted")
	}
	time.Sleep(20 * time.Millisecond) // ~20 cycles inside the 8-cycle cooldown
	if n := fails.Load(); n > 3 {
		t.Fatalf("bad key attempted %d times; cooldown not applied", n)
	}
}
