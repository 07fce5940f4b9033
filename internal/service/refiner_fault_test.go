package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/daggen"
	"rbpebble/internal/instcache"
	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// TestRefinerPreemptedByForegroundBurst is the fault-injection drill
// for the refiner's preemption contract: a background refinement is
// running when foreground traffic arrives; the foreground request must
// cancel it immediately and complete normally, the interrupted
// refinement must still land its certified partial tightening in the
// cache, and the preemption must be visible in the metrics.
func TestRefinerPreemptedByForegroundBurst(t *testing.T) {
	s := New(Config{RefinerInterval: 5 * time.Millisecond})
	defer s.Close()

	seedG := daggen.Pyramid(3)
	burstG := daggen.Pyramid(4)
	var seeded atomic.Bool
	refStarted := make(chan struct{}, 8)
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		if p.G.N() == burstG.N() {
			// The foreground burst: instant, optimal.
			return stubResult(p, 50, 50, true, "stub-burst")
		}
		if seeded.CompareAndSwap(false, true) {
			// The seeding foreground solve: a wide certified interval.
			return stubResult(p, 10, 100, false, "stub-wide")
		}
		// A background refinement: hold the flight until preempted,
		// then hand back a tighter partial interval — exactly what the
		// real orchestrator does when its context is canceled mid-solve.
		select {
		case refStarted <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return stubResult(p, 20, 100, false, "stub-refine")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed: one foreground request caches a wide interval and registers
	// the key for refinement.
	seedBody := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":100}`, dagJSON(t, seedG))
	if code, sr, raw := postSolve(t, ts, seedBody); code != http.StatusOK || sr.Lower != 10 || sr.Upper != 100 {
		t.Fatalf("seed solve: %d %s", code, raw)
	}

	// The idle refiner picks the key up on its own — no new request.
	select {
	case <-refStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("refiner never started a background refinement")
	}

	// Foreground burst: must preempt the refinement and finish fast.
	burstBody := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":100}`, dagJSON(t, burstG))
	start := time.Now()
	code, sr, raw := postSolve(t, ts, burstBody)
	if code != http.StatusOK || !sr.Optimal {
		t.Fatalf("burst solve: %d %s", code, raw)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("burst solve took %s: the refiner blocked foreground work", wall)
	}

	// The preemption is counted, and the interrupted refinement still
	// tightened the stored interval (gap 90 -> 80).
	for i := 0; metric(t, ts, "rbserve_refiner_preempted_total") < 1 ||
		metric(t, ts, "rbserve_refiner_tightened_total") < 1; i++ {
		if i > 5000 {
			t.Fatalf("preempted=%d tightened=%d after waiting",
				metric(t, ts, "rbserve_refiner_preempted_total"),
				metric(t, ts, "rbserve_refiner_tightened_total"))
		}
		time.Sleep(time.Millisecond)
	}

	// The partial tightening serves directly from cache.
	if code, sr, raw := postSolve(t, ts, seedBody); code != http.StatusOK || !sr.Cached || sr.Lower != 20 || sr.Upper != 100 {
		t.Fatalf("post-refinement read: %d cached=%v [%v, %v] %s", code, sr.Cached, sr.Lower, sr.Upper, raw)
	}
}

// TestRefinerAdmissionGateUnderLoad checks the other half of the
// contract: while foreground solves are active the refiner does not
// even start background work.
func TestRefinerAdmissionGateUnderLoad(t *testing.T) {
	s := New(Config{RefinerInterval: time.Millisecond, HeavyLaneWorkers: 2})
	defer s.Close()

	seedG := daggen.Pyramid(3)
	slowG := daggen.Pyramid(5)
	lateG := daggen.Pyramid(6)
	// The first solve of each instance is its foreground request; every
	// later one (the key only re-solves through the cache) is a
	// background refinement.
	var firstSeen sync.Map
	var refineRuns atomic.Int64
	slowStarted := make(chan struct{}, 1)
	slowGate := make(chan struct{})
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		if p.G.N() == slowG.N() {
			select {
			case slowStarted <- struct{}{}:
			default:
			}
			<-slowGate
			return stubResult(p, 7, 7, true, "stub-slow")
		}
		if _, refinement := firstSeen.LoadOrStore(p.G.N(), true); !refinement {
			return stubResult(p, 10, 100, false, "stub-wide")
		}
		refineRuns.Add(1)
		return stubResult(p, 15, 100, false, "stub-refine")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Cache a refinable interval, then pin a foreground solve.
	seedBody := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":100}`, dagJSON(t, seedG))
	if code, _, raw := postSolve(t, ts, seedBody); code != http.StatusOK {
		t.Fatalf("seed solve: %d %s", code, raw)
	}
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(slowGate) }) }
	defer openGate() // a failing assert must not deadlock teardown
	done := make(chan struct{})
	go func() {
		defer close(done)
		postSolve(t, ts, fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":100}`, dagJSON(t, slowG)))
	}()
	<-slowStarted

	// Refinements started in the idle window before the slow solve
	// arrived may still be in flight; let them land, then snapshot.
	time.Sleep(5 * time.Millisecond)
	base := refineRuns.Load()

	// Many refiner ticks pass while the foreground solve runs; the
	// admission gate must hold every one of them back.
	time.Sleep(50 * time.Millisecond)
	if n := refineRuns.Load(); n != base {
		t.Fatalf("refiner ran %d times while a foreground solve was active", n-base)
	}
	openGate()
	<-done

	// Once the node is idle again, refinement resumes: a freshly cached
	// wide interval (whose budget tiers are all still unexplored) is
	// picked up without any further request.
	preLate := refineRuns.Load()
	lateBody := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":100}`, dagJSON(t, lateG))
	if code, _, raw := postSolve(t, ts, lateBody); code != http.StatusOK {
		t.Fatalf("late solve: %d %s", code, raw)
	}
	for i := 0; refineRuns.Load() <= preLate; i++ {
		if i > 5000 {
			t.Fatal("refiner never resumed after the foreground solve finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRefineKeyThroughSharedCore: a background refinement runs through
// the keyed-solve core foreground requests use. The refinement's solve
// gets its tier's nominal deadline, half the node's table-memory budget
// and a warm start taken from the cached interval; its telemetry record
// carries the refine disposition; and the tightened entry reaches
// Config.Replicate.
func TestRefineKeyThroughSharedCore(t *testing.T) {
	const tableBytes = 1 << 20
	replicated := make(chan instcache.Entry, 16)
	s := New(Config{
		RefinerInterval: 5 * time.Millisecond,
		MaxTableBytes:   tableBytes,
		Replicate: func(e instcache.Entry) {
			select {
			case replicated <- e:
			default:
			}
		},
	})
	defer s.Close()

	g := daggen.Pyramid(3)
	var calls atomic.Int64
	refineOpts := make(chan anytime.Options, 1)
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		if calls.Add(1) == 1 {
			// The seeding foreground solve: full budget, cold.
			if opts.MaxTableBytes != tableBytes || opts.Warm != nil {
				t.Errorf("foreground solve got MaxTableBytes=%d warm=%v, want %d and no warm start",
					opts.MaxTableBytes, opts.Warm != nil, tableBytes)
			}
			return stubResult(p, 10, 100, false, "stub-wide")
		}
		select {
		case refineOpts <- opts:
		default:
		}
		return stubResult(p, 20, 100, false, "stub-refine")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed at 1024 ms (tier 11); the refiner escalates once, to its
	// ceiling, tier 12.
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":1024}`, dagJSON(t, g))
	if code, sr, raw := postSolve(t, ts, body); code != http.StatusOK || sr.Lower != 10 || sr.Upper != 100 {
		t.Fatalf("seed solve: %d %s", code, raw)
	}

	var opts anytime.Options
	select {
	case opts = <-refineOpts:
	case <-time.After(5 * time.Second):
		t.Fatal("refiner never ran a refinement")
	}
	if want := 2048 * time.Millisecond; opts.Budget != want {
		t.Errorf("refinement budget %s, want tier 12's nominal %s", opts.Budget, want)
	}
	if opts.MaxTableBytes != tableBytes/2 {
		t.Errorf("refinement MaxTableBytes %d, want %d", opts.MaxTableBytes, tableBytes/2)
	}
	// Flights solve the canonical problem, so the cached incumbent, and
	// the warm start built from it, is TopoBelady's trace on pyramid(3)
	// relabeled by its key's permutation.
	cp := solve.Problem{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3}
	_, perm := instcache.Instance{G: cp.G, Model: cp.Model, R: cp.R}.Key()
	cp.G = cp.G.Relabel(perm)
	seed, err := solve.TopoBelady(cp)
	if err != nil {
		t.Fatal(err)
	}
	if w := opts.Warm; w == nil || w.LowerScaled != 10 || w.Source != "cache:stub-wide" ||
		!reflect.DeepEqual(w.Moves, seed.Trace.Moves) {
		t.Errorf("refinement warm start = %+v, want the cached [10, 100] with its incumbent trace", w)
	}

	// The tightened entry is replicated like a foreground result.
	deadline := time.After(5 * time.Second)
	for tightened := false; !tightened; {
		select {
		case e := <-replicated:
			tightened = e.Value.Tier == 12 && e.Value.LowerScaled == 20 && e.Value.UpperScaled == 100
		case <-deadline:
			t.Fatal("the refinement's tightened entry never reached Config.Replicate")
		}
	}

	var rec *obs.SolveRecord
	for _, r := range getSolves(t, ts, 0).Records {
		if r.Disposition == "refine" {
			rec = &r
			break
		}
	}
	if rec == nil {
		t.Fatal("no refine record on /debug/solves")
	}
	if rec.Tier != 12 || rec.BudgetMS != 2048 || rec.LowerScaled != 20 || rec.UpperScaled != 100 || rec.Err != "" {
		t.Errorf("refine record = %+v", *rec)
	}
}

// stubResult fabricates an anytime result with a genuinely valid
// (replay-verifiable) trace from the cheap heuristic, overriding only
// the certified bounds — the refiner logic under test cares about
// intervals, not moves.
func stubResult(p solve.Problem, lower, upper int64, optimal bool, source string) (anytime.Result, error) {
	sol, err := solve.TopoBelady(p)
	if err != nil {
		return anytime.Result{}, err
	}
	return anytime.Result{
		Solution:    sol,
		LowerScaled: lower,
		UpperScaled: upper,
		Optimal:     optimal,
		Source:      source,
	}, nil
}
