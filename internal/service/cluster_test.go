package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/daggen"
	"rbpebble/internal/instcache"
	"rbpebble/internal/obs"
	"rbpebble/internal/solve"
)

// TestAsyncQueueShedsWith429: async jobs and sync solves share the
// heavy lane's one backlog. With the single heavy worker held by a
// gated async job and the lane's one queue slot taken by a sync
// request, the next async submission is shed with 429 and a
// Retry-After estimate instead of queuing unboundedly.
func TestAsyncQueueShedsWith429(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1, heavyLaneQueue: 1})
	defer s.Close()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	started := make(chan struct{})
	var startedOnce sync.Once
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		startedOnce.Do(func() { close(started) })
		<-gate
		return anytime.Solve(ctx, p, anytime.Options{})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer release() // runs first: both Closes wait for the gated solves

	submit := func(h int) (*http.Response, error) {
		return http.Post(ts.URL+"/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"async":true}`,
				dagJSON(t, daggen.Pyramid(h)))))
	}

	r1, err := submit(3) // occupies the single heavy worker
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first async submission: %d, want 202", r1.StatusCode)
	}
	<-started
	syncCode := make(chan int, 1)
	go func() { // fills the heavy lane's queue; blocks until the gate opens
		code, _, _ := postSolve(t, ts, fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":10000}`,
			dagJSON(t, daggen.Pyramid(4))))
		syncCode <- code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.lanes.heavy.depth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("sync request never queued behind the async job on the heavy lane")
		}
		time.Sleep(time.Millisecond)
	}

	r3, err := submit(5) // heavy lane full: shed
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submission status = %d, want 429", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive backlog estimate", ra)
	}
	if got := metric(t, ts, "rbserve_jobs_shed_total"); got != 1 {
		t.Fatalf("jobs_shed_total = %d, want 1", got)
	}
	release()
	if code := <-syncCode; code != http.StatusOK {
		t.Fatalf("queued sync request status = %d, want 200", code)
	}
}

// TestAsyncCacheHitRidesFastLane: an async job whose key the cache
// probe can serve is classified like a sync request — it rides the fast
// lane, finishes done with cached:true, and never reaches a solver.
func TestAsyncCacheHitRidesFastLane(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := dagJSON(t, daggen.Pyramid(4))
	if code, sr, raw := postSolve(t, ts, fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, g)); code != http.StatusOK || !sr.Optimal {
		t.Fatalf("warming solve: %d %s", code, raw)
	}
	solves := metric(t, ts, "rbserve_solves_total")

	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"async":true}`, g)))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	traceID := resp.Header.Get(obs.TraceHeader)
	if resp.StatusCode != http.StatusAccepted || jr.ID == "" || traceID == "" {
		t.Fatalf("submit: status %d, job %+v, trace %q", resp.StatusCode, jr, traceID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !terminal(jr.Status) {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(2 * time.Millisecond)
		getJSON(t, ts.URL+"/solve/"+jr.ID, &jr)
	}
	if jr.Status != "done" || jr.Result == nil || !jr.Result.Cached || !jr.Result.Optimal {
		t.Fatalf("cached async job = %+v, want done with a cached optimal result", jr)
	}

	code, tv := getTrace(t, ts, traceID)
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	lane := ""
	for _, sv := range tv.Spans {
		if sv.Name == "lane-queue" {
			lane = sv.Attrs["lane"]
		}
	}
	if lane != laneFast {
		t.Fatalf("async cache hit lane-queue lane = %q, want %q; spans %+v", lane, laneFast, tv.Spans)
	}
	if got := metric(t, ts, "rbserve_solves_total"); got != solves {
		t.Fatalf("solves_total = %d after a cache-served job, want %d", got, solves)
	}
}

// TestCacheImportEndpoint: entries exported from one node and POSTed to
// another node's /cache/import serve that node's requests from cache.
func TestCacheImportEndpoint(t *testing.T) {
	src := New(Config{})
	defer src.Close()
	srcTS := httptest.NewServer(src.Handler())
	defer srcTS.Close()

	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(4)))
	if code, sr, raw := postSolve(t, srcTS, body); code != http.StatusOK || !sr.Optimal {
		t.Fatalf("source solve: %d %s", code, raw)
	}
	exported := src.ExportCache()
	if len(exported) == 0 {
		t.Fatal("source exported nothing")
	}

	dst := New(Config{})
	defer dst.Close()
	dstTS := httptest.NewServer(dst.Handler())
	defer dstTS.Close()

	payload, _ := json.Marshal(map[string]any{"entries": exported})
	resp, err := http.Post(dstTS.URL+"/cache/import", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var ir map[string]int
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ir["imported"] != len(exported) {
		t.Fatalf("import: status %d, imported=%d, want %d", resp.StatusCode, ir["imported"], len(exported))
	}

	// The destination now serves the instance (with trace verification)
	// without solving it.
	code, sr, raw := postSolve(t, dstTS, fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"include_trace":true}`,
		dagJSON(t, daggen.Pyramid(4))))
	if code != http.StatusOK || !sr.Cached || !sr.Optimal || len(sr.Moves) == 0 {
		t.Fatalf("imported entry not served: %d %s", code, raw)
	}
	if got := metric(t, dstTS, "rbserve_solves_total"); got != 0 {
		t.Fatalf("destination solved locally (%d solves), import should have prevented that", got)
	}
	if got := metric(t, dstTS, "rbserve_cache_imported_total"); got != len(exported) {
		t.Fatalf("cache_imported_total = %d, want %d", got, len(exported))
	}
}

// TestReplicateHookLeaderOnly: the Replicate hook fires for the flight
// leader's freshly produced entry, and not for cache hits.
func TestReplicateHookLeaderOnly(t *testing.T) {
	var mu sync.Mutex
	var got []instcache.Entry
	s := New(Config{Replicate: func(e instcache.Entry) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(4)))
	if code, _, raw := postSolve(t, ts, body); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, raw)
	}
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("replications after fresh solve = %d, want 1", n)
	}
	if got[0].Key == "" || !got[0].Value.Optimal {
		t.Fatalf("replicated entry = %+v, want the proven optimum", got[0])
	}

	// A cache hit produced nothing new: no replication.
	if code, sr, raw := postSolve(t, ts, body); code != http.StatusOK || !sr.Cached {
		t.Fatalf("repeat solve: %d %s", code, raw)
	}
	mu.Lock()
	n = len(got)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("replications after cache hit = %d, want still 1", n)
	}
}
