package instcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// relabel returns a copy of g with node v renamed to perm[v].
func relabel(g *dag.DAG, perm []dag.NodeID) *dag.DAG {
	h := dag.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			h.AddEdge(perm[v], perm[w])
		}
	}
	return h
}

func randPerm(n int, rng *rand.Rand) []dag.NodeID {
	p := make([]dag.NodeID, n)
	for i, v := range rng.Perm(n) {
		p[i] = dag.NodeID(v)
	}
	return p
}

// keyOf returns the oneshot R=3 instance key of g and its canonical
// permutation.
func keyOf(g *dag.DAG) (string, []dag.NodeID) {
	return Instance{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3}.Key()
}

// TestCanonicalInvariance: relabeled copies of an instance get the same
// key, and its permutation is a permutation of the nodes.
func TestCanonicalInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	graphs := map[string]*dag.DAG{
		"pyramid4":  daggen.Pyramid(4),
		"fft2":      daggen.FFT(2),
		"chain9":    daggen.Chain(9),
		"tree3":     daggen.BinaryTree(3),
		"grid33":    daggen.Grid(3, 3),
		"layered":   daggen.RandomLayered(3, 4, 2, 5),
		"singleton": dag.New(1),
	}
	for name, g := range graphs {
		d0, perm0 := keyOf(g)
		if len(perm0) != g.N() {
			t.Fatalf("%s: perm length %d != n %d", name, len(perm0), g.N())
		}
		seen := make([]bool, g.N())
		for _, c := range perm0 {
			if int(c) >= g.N() || seen[c] {
				t.Fatalf("%s: perm is not a permutation", name)
			}
			seen[c] = true
		}
		for trial := 0; trial < 5; trial++ {
			perm := randPerm(g.N(), rng)
			h := relabel(g, perm)
			d1, _ := keyOf(h)
			if d0 != d1 {
				t.Fatalf("%s: key changed under relabeling (trial %d)", name, trial)
			}
		}
	}
}

// TestCanonicalDistinguishes: structurally different graphs get
// different keys.
func TestCanonicalDistinguishes(t *testing.T) {
	// Note Grid(2,3) and Grid(3,2) are deliberately absent: the stencil
	// grid is transpose-symmetric, so they are isomorphic and SHOULD
	// share a digest (the invariance test covers that direction).
	gs := []*dag.DAG{
		daggen.Pyramid(3), daggen.Pyramid(4), daggen.Chain(6), daggen.Chain(7),
		daggen.FFT(2), daggen.Grid(2, 3), daggen.Grid(2, 4), daggen.BinaryTree(3),
		daggen.Stencil1D(4, 2), daggen.MatMul(2),
	}
	seen := map[string]int{}
	for i, g := range gs {
		d, _ := keyOf(g)
		if j, dup := seen[d]; dup {
			t.Fatalf("graphs %d and %d share a key", i, j)
		}
		seen[d] = i
	}
}

// TestKeySeparatesParameters: same graph, different model/R/convention
// must produce different keys.
func TestKeySeparatesParameters(t *testing.T) {
	g := daggen.Pyramid(3)
	keys := map[string]bool{}
	for _, in := range []Instance{
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3},
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 4},
		{G: g, Model: pebble.NewModel(pebble.Base), R: 3},
		{G: g, Model: pebble.NewModel(pebble.CompCost), R: 3},
		{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3,
			Convention: pebble.Convention{SinksMustBeBlue: true}},
	} {
		k, _ := in.Key()
		if keys[k] {
			t.Fatalf("duplicate key %q", k)
		}
		keys[k] = true
	}
}

// TestTranslationRoundTrip solves a canonical instance, stores the
// trace canonically, and replays it on a relabeled copy through
// FromCanonical — the cached solution must be valid (and optimal) for
// the relabeled instance.
func TestTranslationRoundTrip(t *testing.T) {
	g := daggen.Pyramid(4)
	model := pebble.NewModel(pebble.Oneshot)
	sol, err := solve.Exact(solve.Problem{G: g, Model: model, R: 3}, solve.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, perm := keyOf(g)
	canonMoves := ToCanonical(sol.Trace.Moves, perm)

	rng := rand.New(rand.NewSource(7))
	rp := randPerm(g.N(), rng)
	h := relabel(g, rp)
	_, hperm := keyOf(h)
	tr := &pebble.Trace{Model: model, R: 3, Convention: pebble.Convention{},
		Moves: FromCanonical(canonMoves, hperm)}
	res, err := tr.Run(h)
	if err != nil {
		t.Fatalf("translated trace does not replay on the relabeled graph: %v", err)
	}
	if res.Cost != sol.Result.Cost {
		t.Fatalf("translated cost %v != original %v", res.Cost, sol.Result.Cost)
	}
}

// TestCacheLRUAndStats exercises hit/miss/eviction accounting.
func TestCacheLRUAndStats(t *testing.T) {
	c := New(2)
	get := func(key string) (Value, bool) {
		v, hit, _, _, err := c.Do(context.Background(), key, 5, func(*Value) (Value, error) {
			return Value{UpperScaled: 1, LowerScaled: 1, Optimal: true}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	if _, hit := get("a"); hit {
		t.Fatal("first lookup hit")
	}
	if _, hit := get("a"); !hit {
		t.Fatal("second lookup missed")
	}
	get("b")
	get("c") // evicts a
	if _, hit := get("a"); hit {
		t.Fatal("evicted entry still hit")
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want evictions > 0 and 2 entries", st)
	}
}

// TestIntervalTierLifecycle covers the deadline-limited interval path:
// same-tier repeats warm-start a fresh solve (and tighten), lower-tier
// requests are served a higher tier's interval directly, and a merged
// interval that closes is promoted to the optimal segment.
func TestIntervalTierLifecycle(t *testing.T) {
	c := New(8)
	do := func(tier int, fn func(warm *Value) (Value, error)) (Value, bool, bool) {
		v, hit, _, warmed, err := c.Do(context.Background(), "k", tier, fn)
		if err != nil {
			t.Fatal(err)
		}
		return v, hit, warmed
	}

	// First deadline-limited solve: interval [5, 20] at tier 7.
	v, hit, warmed := do(7, func(warm *Value) (Value, error) {
		if warm != nil {
			t.Fatal("cold start got warm data")
		}
		return Value{UpperScaled: 20, LowerScaled: 5, Source: "astar"}, nil
	})
	if hit || warmed || v.UpperScaled != 20 {
		t.Fatalf("first interval solve: v=%+v hit=%v warmed=%v", v, hit, warmed)
	}

	// Same tier again: not a hit — warm-started refinement, which
	// tightens, and the caller sees the MERGED interval.
	v, hit, warmed = do(7, func(warm *Value) (Value, error) {
		if warm == nil || warm.UpperScaled != 20 || warm.LowerScaled != 5 {
			t.Fatalf("warm = %+v, want cached [5, 20]", warm)
		}
		return Value{UpperScaled: 25, LowerScaled: 9, Source: "ida*"}, nil
	})
	if hit || !warmed {
		t.Fatalf("same-tier repeat: hit=%v warmed=%v", hit, warmed)
	}
	if v.UpperScaled != 20 || v.LowerScaled != 9 {
		t.Fatalf("merged interval = [%d, %d], want [9, 20]", v.LowerScaled, v.UpperScaled)
	}

	// A lower-tier (smaller budget) request is served the stored
	// interval directly: a bigger budget already tried harder.
	v, hit, _ = do(3, func(*Value) (Value, error) {
		t.Fatal("lower-tier request must not re-solve")
		return Value{}, nil
	})
	if !hit || v.UpperScaled != 20 || v.LowerScaled != 9 {
		t.Fatalf("lower-tier serve: v=%+v hit=%v", v, hit)
	}

	// Bounds meeting across requests closes and promotes the interval.
	v, _, _ = do(7, func(warm *Value) (Value, error) {
		return Value{UpperScaled: 9, LowerScaled: 9, Source: "ida*"}, nil
	})
	if !v.Optimal {
		t.Fatalf("closed interval not promoted: %+v", v)
	}
	if _, hit, _ = do(1, func(*Value) (Value, error) { return Value{}, nil }); !hit {
		t.Fatal("promoted optimum not served as a hit")
	}
	st := c.Stats()
	if st.IntervalEntries != 0 {
		t.Fatalf("interval entries left after promotion: %+v", st)
	}
	if st.WarmStarts < 2 || st.Tightenings < 1 {
		t.Fatalf("warm/tighten counters: %+v", st)
	}

	// A key's interval carries the highest tier tried: a solve credited
	// only tier 4 (canceled early) after a tier-9 store leaves tier 8
	// requests served from the cache, and the key exports one row.
	store := func(tier int, v Value) {
		if _, _, _, _, err := c.Do(context.Background(), "j", tier, func(*Value) (Value, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	store(9, Value{UpperScaled: 40, LowerScaled: 5})
	store(9, Value{UpperScaled: 38, LowerScaled: 6, Tier: 4})
	if v, hit, _, _, _ := c.Do(context.Background(), "j", 8, func(*Value) (Value, error) {
		t.Fatal("tier-8 request re-solved below the key's tier-9 interval")
		return Value{}, nil
	}); !hit || v.Tier != 9 || v.LowerScaled != 6 || v.UpperScaled != 38 {
		t.Fatalf("tier-8 serve: v=%+v hit=%v, want [6,38] at tier 9", v, hit)
	}
	var rows []Entry
	for _, e := range c.Export() {
		if e.Key == "j" {
			rows = append(rows, e)
		}
	}
	if len(rows) != 1 || rows[0].Value.Tier != 9 {
		t.Fatalf("export rows for j = %+v, want one at tier 9", rows)
	}
}

// TestIntervalsNeverDisplaceOptimal fills the optimal segment, then
// floods the cache with interval entries: every proven-optimal entry
// must survive, with interval entries evicting only each other.
func TestIntervalsNeverDisplaceOptimal(t *testing.T) {
	c := New(4)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("opt-%d", i)
		c.Do(context.Background(), key, 3, func(*Value) (Value, error) {
			return Value{UpperScaled: 1, LowerScaled: 1, Optimal: true}, nil
		})
	}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("int-%d", i)
		c.Do(context.Background(), key, 3, func(*Value) (Value, error) {
			return Value{UpperScaled: 10, LowerScaled: 2}, nil
		})
	}
	st := c.Stats()
	if st.Entries != 4 || st.Evictions != 0 {
		t.Fatalf("optimal entries displaced: %+v", st)
	}
	if st.IntervalEntries != 4 || st.IntervalEvictions != 28 {
		t.Fatalf("interval LRU accounting: %+v", st)
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("opt-%d", i)
		if _, hit, _, _, _ := c.Do(context.Background(), key, 3, func(*Value) (Value, error) {
			t.Fatalf("optimal entry %s lost", key)
			return Value{}, nil
		}); !hit {
			t.Fatalf("optimal entry %s not a hit", key)
		}
	}
}

// TestTierForBudget pins the doubling-bucket tier function.
func TestTierForBudget(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{50 * time.Millisecond, 6},
		{100 * time.Millisecond, 7},
		{127 * time.Millisecond, 7},
		{128 * time.Millisecond, 8},
		{2 * time.Second, 11},
	} {
		if got := TierForBudget(tc.d); got != tc.want {
			t.Fatalf("TierForBudget(%s) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestSingleflight: N concurrent identical requests run fn exactly
// once; the rest share the result.
func TestSingleflight(t *testing.T) {
	c := New(8)
	const n = 16
	gate := make(chan struct{})
	var calls int
	var wg sync.WaitGroup
	var mu sync.Mutex
	sharedCount := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, shared, _, err := c.Do(context.Background(), "k", 3, func(*Value) (Value, error) {
				calls++ // safe: singleflight guarantees one caller
				<-gate
				return Value{Optimal: true}, nil
			})
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			if shared {
				sharedCount++
			}
			mu.Unlock()
		}()
	}
	// Let the requests pile onto the flight, then release it. The
	// stats-based wait avoids a racy sleep.
	for {
		st := c.Stats()
		if st.Misses >= n {
			break
		}
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if sharedCount != n-1 {
		t.Fatalf("%d shared flights, want %d", sharedCount, n-1)
	}
	if st := c.Stats(); st.SharedFlights != n-1 {
		t.Fatalf("stats shared = %d, want %d", st.SharedFlights, n-1)
	}
}

// FuzzCanonicalInvariance guards the instance-key path: any parsed
// DAG must key identically under a relabeling derived from the input
// bytes. (Package canon fuzzes the digest and the group order.)
func FuzzCanonicalInvariance(f *testing.F) {
	seedGraph := func(g *dag.DAG) {
		var buf bytes.Buffer
		if err := g.WriteText(&buf); err == nil {
			f.Add(buf.Bytes(), int64(1))
		}
	}
	seedGraph(daggen.Pyramid(3))
	seedGraph(daggen.FFT(2))
	seedGraph(daggen.Chain(5))
	seedGraph(daggen.Grid(2, 2))
	seedGraph(daggen.RandomLayered(2, 3, 2, 9))
	f.Add([]byte("nodes 3\nedge 0 1\nedge 1 2\n"), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		g, err := dag.ReadText(bytes.NewReader(data))
		if err != nil || g.N() == 0 || g.N() > 64 {
			return
		}
		d0, perm0 := keyOf(g)
		if len(perm0) != g.N() {
			t.Fatalf("perm length %d != n %d", len(perm0), g.N())
		}
		rng := rand.New(rand.NewSource(seed))
		h := relabel(g, randPerm(g.N(), rng))
		d1, _ := keyOf(h)
		if d0 != d1 {
			t.Fatalf("key not invariant under relabeling (n=%d)", g.N())
		}
	})
}

var _ = fmt.Sprintf // keep fmt for debugging edits

// TestSingleflightWaitHonorsContext: a waiter with an expired context
// gives up instead of inheriting the leader's budget.
func TestSingleflightWaitHonorsContext(t *testing.T) {
	c := New(8)
	gate := make(chan struct{})
	leaderRunning := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, _, _, err := c.Do(context.Background(), "k", 3, func(*Value) (Value, error) {
			close(leaderRunning)
			<-gate
			return Value{Optimal: true}, nil
		})
		done <- err
	}()
	<-leaderRunning
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, shared, _, err := c.Do(ctx, "k", 3, func(*Value) (Value, error) {
		t.Error("waiter must not run fn")
		return Value{}, nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("shared=%v err=%v, want shared wait aborted by context", shared, err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
	// The completed optimal result is cached despite the waiter bailing.
	if _, hit, _, _, _ := c.Do(context.Background(), "k", 3, func(*Value) (Value, error) { return Value{}, nil }); !hit {
		t.Fatal("leader result not cached")
	}
}

// TestCanonicalBoundedCost guards the serving request path against the
// canonical-labeling blowup: path-like graphs inside canon's size
// window refine to discrete without individualization, and graphs
// beyond it take the representation-exact fast path. (Before the size
// cap, chain(4000) took seconds in the recursion.)
func TestCanonicalBoundedCost(t *testing.T) {
	for _, n := range []int{500, 4000, 50000} {
		start := time.Now()
		keyOf(daggen.Chain(n))
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("key of chain(%d) took %s", n, d)
		}
	}
}

// TestPanickingSolveDoesNotPoisonKey: a panic inside fn frees waiters
// with an error, propagates, and leaves the key usable.
func TestPanickingSolveDoesNotPoisonKey(t *testing.T) {
	c := New(8)
	leaderRunning := make(chan struct{})
	release := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		<-leaderRunning
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, _, _, err := c.Do(ctx, "k", 3, func(*Value) (Value, error) { return Value{}, nil })
		waiterErr <- err
	}()
	go func() {
		// Release the leader's panic only once the waiter has latched
		// onto the flight, so the waiter provably waits on teardown.
		for c.Stats().SharedFlights == 0 {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		c.Do(context.Background(), "k", 3, func(*Value) (Value, error) {
			close(leaderRunning)
			<-release
			panic("solver bug")
		})
	}()
	if err := <-waiterErr; err == nil {
		t.Fatal("waiter got nil error from panicked flight")
	}
	// The key recovers: a fresh request runs fn again.
	v, hit, shared, _, err := c.Do(context.Background(), "k", 3, func(*Value) (Value, error) {
		return Value{UpperScaled: 1, LowerScaled: 1, Optimal: true}, nil
	})
	if err != nil || hit || shared || !v.Optimal {
		t.Fatalf("key did not recover: v=%+v hit=%v shared=%v err=%v", v, hit, shared, err)
	}
}

// TestConcurrentIsomorphicRequests is the satellite race scenario: many
// goroutines, each holding a DIFFERENT random relabeling of the same
// instance, compute canonical keys and hit the cache concurrently at
// mixed budget tiers. Exactly one solve may run per generation of the
// interval (singleflight), every caller must end with a coherent
// interval, and the proven-optimal entry planted for a second instance
// must survive the interval churn. Run under -race in CI.
func TestConcurrentIsomorphicRequests(t *testing.T) {
	base := daggen.Pyramid(4)
	model := pebble.NewModel(pebble.Oneshot)
	c := New(4)

	// Plant a proven-optimal entry for a different instance; the
	// concurrent interval traffic below must never evict it.
	optKey, _ := Instance{G: daggen.FFT(2), Model: model, R: 4}.Key()
	c.Do(context.Background(), optKey, 3, func(*Value) (Value, error) {
		return Value{UpperScaled: 7, LowerScaled: 7, Optimal: true}, nil
	})

	rng := rand.New(rand.NewSource(99))
	const n = 24
	copies := make([]*dag.DAG, n)
	for i := range copies {
		copies[i] = relabel(base, randPerm(base.N(), rng))
	}

	var solves atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst := Instance{G: copies[i], Model: model, R: 3}
			key, _ := inst.Key()
			tier := 5 + i%3
			v, _, _, _, err := c.Do(context.Background(), key, tier, func(warm *Value) (Value, error) {
				solves.Add(1)
				lo, hi := int64(4), int64(16)
				if warm != nil {
					lo, hi = warm.LowerScaled+1, warm.UpperScaled
				}
				return Value{UpperScaled: hi, LowerScaled: lo, Source: "test"}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if v.LowerScaled > v.UpperScaled || v.UpperScaled > 16 || v.LowerScaled < 4 {
				t.Errorf("incoherent interval [%d, %d]", v.LowerScaled, v.UpperScaled)
			}
		}(i)
	}
	wg.Wait()

	// All 24 isomorphic relabelings funneled into one key: far fewer
	// solves than requests (each non-shared, non-hit request tightens
	// the shared interval monotonically).
	if got := solves.Load(); got >= n {
		t.Fatalf("no deduplication: %d solves for %d isomorphic requests", got, n)
	}
	if _, hit, _, _, _ := c.Do(context.Background(), optKey, 3, func(*Value) (Value, error) {
		return Value{}, nil
	}); !hit {
		t.Fatal("interval churn evicted the proven-optimal entry")
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Fatalf("optimal-segment evictions under interval churn: %+v", st)
	}
}
