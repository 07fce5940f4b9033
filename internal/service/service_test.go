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
	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/solve"
)

func dagJSON(t *testing.T, g *dag.DAG) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postSolve(t *testing.T, ts *httptest.Server, body string) (int, SolveResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var sr SolveResponse
	json.Unmarshal(buf.Bytes(), &sr)
	return resp.StatusCode, sr, buf.String()
}

func metric(t *testing.T, ts *httptest.Server, name string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		var v int
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, buf.String())
	return 0
}

// TestSolveOptimalAndCacheHit is the smoke path: pyramid(4) solves to a
// proven optimum; an identical repeat (different node numbering!) is a
// cache hit with the same certified answer, observable via /metrics.
func TestSolveOptimalAndCacheHit(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := daggen.Pyramid(4)
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"include_trace":true}`, dagJSON(t, g))
	code, sr, raw := postSolve(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if !sr.Optimal || sr.Cached || sr.Gap != 0 {
		t.Fatalf("first solve: %+v", sr)
	}
	if len(sr.Moves) == 0 {
		t.Fatal("include_trace returned no moves")
	}
	want := sr.Cost

	// Repeat with a relabeled isomorphic copy: still a cache hit.
	perm := make([]dag.NodeID, g.N())
	for v := 0; v < g.N(); v++ {
		perm[v] = dag.NodeID(g.N() - 1 - v)
	}
	h := dag.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			h.AddEdge(perm[v], perm[w])
		}
	}
	code, sr2, raw := postSolve(t, ts, fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, h)))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if !sr2.Cached || !sr2.Optimal || sr2.Cost != want {
		t.Fatalf("relabeled repeat not served from cache: %+v", sr2)
	}
	if got := metric(t, ts, "rbserve_cache_hits_total"); got != 1 {
		t.Fatalf("cache_hits_total = %d, want 1", got)
	}
	if got := metric(t, ts, "rbserve_solves_total"); got != 1 {
		t.Fatalf("solves_total = %d, want 1", got)
	}
}

// TestSingleflightConcurrentRequests gates the solver so that N
// concurrent identical requests demonstrably share one solve.
func TestSingleflightConcurrentRequests(t *testing.T) {
	// One heavy-lane worker per request: every concurrent request must
	// reach the singleflight (and latch on) while the leader is gated,
	// or the misses counter below never reaches n.
	s := New(Config{HeavyLaneWorkers: 8})
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan struct{}, 64)
	var calls int // guarded by singleflight: only one caller runs
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		calls++
		started <- struct{}{}
		<-gate
		return anytime.Solve(ctx, p, anytime.Options{})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(4)))
	const n = 8
	var wg sync.WaitGroup
	results := make([]SolveResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, sr, raw := postSolve(t, ts, body)
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, raw)
			}
			results[i] = sr
		}(i)
	}
	<-started // the one solve is running; the rest must latch on
	for {
		if metric(t, ts, "rbserve_cache_misses_total") >= n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("solver ran %d times for %d concurrent identical requests", calls, n)
	}
	sharedCount := 0
	for _, sr := range results {
		if !sr.Optimal {
			t.Fatalf("non-optimal result: %+v", sr)
		}
		if sr.Shared {
			sharedCount++
		}
	}
	if sharedCount != n-1 {
		t.Fatalf("%d requests shared the flight, want %d", sharedCount, n-1)
	}
	if got := metric(t, ts, "rbserve_singleflight_shared_total"); got != n-1 {
		t.Fatalf("singleflight_shared_total = %d, want %d", got, n-1)
	}
	if got := metric(t, ts, "rbserve_solves_total"); got != 1 {
		t.Fatalf("solves_total = %d, want 1", got)
	}
}

// TestAsyncJob exercises the queue: enqueue, poll until done, check
// the certified result.
func TestAsyncJob(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"async":true}`, dagJSON(t, daggen.Pyramid(4)))
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || jr.ID == "" {
		t.Fatalf("submit: status %d, job %+v", resp.StatusCode, jr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		resp, err := http.Get(ts.URL + "/solve/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got JobResponse
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if got.Status == "done" {
			if got.Result == nil || !got.Result.Optimal {
				t.Fatalf("done without optimal result: %+v", got)
			}
			break
		}
		if got.Status == "error" {
			t.Fatalf("job failed: %s", got.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := metric(t, ts, "rbserve_jobs_done_total"); got != 1 {
		t.Fatalf("jobs_done_total = %d, want 1", got)
	}
}

// TestDeadlineReturnsCertifiedInterval: a tiny deadline on a hard
// instance returns 200 with a non-optimal certified interval.
func TestDeadlineReturnsCertifiedInterval(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// fft(3) R=3 in nodel: serial A* needs about 2s to close it (the
	// oneshot instance closes in a few hundred ms under symmetry).
	body := fmt.Sprintf(`{"dag":%s,"model":"nodel","r":3,"deadline_ms":60}`, dagJSON(t, daggen.FFT(3)))
	code, sr, raw := postSolve(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if sr.Optimal {
		t.Skip("host solved fft(3) nodel within 60ms; interval check not reachable")
	}
	if sr.Lower <= 0 || sr.Lower > sr.Upper || sr.Gap <= 0 {
		t.Fatalf("incoherent certified interval: %+v", sr)
	}
	// A deadline-limited answer is not served verbatim to an equal-budget
	// repeat — the repeat warm-starts a fresh refinement from the cached
	// interval, and the result must be at least as tight on both ends.
	_, sr2, _ := postSolve(t, ts, body)
	if sr2.Cached {
		t.Fatalf("non-optimal result was served from cache: %+v", sr2)
	}
	if !sr2.Warmed {
		t.Fatalf("second request did not warm-start: %+v", sr2)
	}
	if sr2.Upper > sr.Upper || sr2.Lower < sr.Lower {
		t.Fatalf("warm-started interval regressed: first [%v, %v], second [%v, %v]",
			sr.Lower, sr.Upper, sr2.Lower, sr2.Upper)
	}
	if got := metric(t, ts, "rbserve_warm_starts_total"); got != 1 {
		t.Fatalf("warm_starts_total = %d, want 1", got)
	}
	if got := metric(t, ts, "rbserve_interval_stores_total"); got < 2 {
		t.Fatalf("interval_stores_total = %d, want >= 2", got)
	}

	// A strictly smaller budget tier is served the stored interval
	// directly: a bigger budget already tried harder.
	small := fmt.Sprintf(`{"dag":%s,"model":"nodel","r":3,"deadline_ms":1}`, dagJSON(t, daggen.FFT(3)))
	_, sr3, _ := postSolve(t, ts, small)
	if !sr3.Cached {
		t.Fatalf("lower-tier request not served from interval cache: %+v", sr3)
	}
	if got := metric(t, ts, "rbserve_interval_hits_total"); got != 1 {
		t.Fatalf("interval_hits_total = %d, want 1", got)
	}
}

// TestDrainFailsHealthzAndRefusesWork: Drain() must fail the health
// probe (so a routing proxy stops sending here) and 503 new solves,
// observable in /metrics.
func TestDrainFailsHealthzAndRefusesWork(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz = %d", resp.StatusCode)
	}
	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	code, _, _ := postSolve(t, ts, fmt.Sprintf(`{"dag":%s}`, dagJSON(t, daggen.Chain(3))))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining solve = %d, want 503", code)
	}
	if got := metric(t, ts, "rbserve_draining"); got != 1 {
		t.Fatalf("rbserve_draining = %d, want 1", got)
	}
}

// TestCancelRunningJob: DELETE /solve/{id} on a running job stops the
// solve through the cooperative cancellation layer and returns the
// partial certified interval harvested at cancellation.
func TestCancelRunningJob(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// fft(3) R=3 in nodel with a long budget: the exact engines need
	// seconds, so the DELETE provably lands mid-solve.
	body := fmt.Sprintf(`{"dag":%s,"model":"nodel","r":3,"deadline_ms":30000,"async":true}`,
		dagJSON(t, daggen.FFT(3)))
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	// Wait until the job has certified a positive floor before canceling:
	// fft(3) R=3's root bound is 0, so a cancel that lands before the
	// engines' first streamed bound correctly harvests [0, upper], which
	// carries no information to assert on.
	gauge := fmt.Sprintf("rbserve_job_lower_bound{job=%q} ", jr.ID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := scrapeMetrics(t, ts)
		i := strings.Index(m, gauge)
		if i >= 0 && !strings.HasPrefix(m[i+len(gauge):], "0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never certified a positive lower bound:\n%s", m)
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/solve/"+jr.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled JobResponse
	json.NewDecoder(dresp.Body).Decode(&canceled)
	dresp.Body.Close()
	if canceled.Status != "canceled" {
		t.Fatalf("status after DELETE = %q, want canceled (%+v)", canceled.Status, canceled)
	}
	if canceled.Result == nil {
		t.Fatalf("no partial interval harvested at cancellation: %+v", canceled)
	}
	if canceled.Result.Lower <= 0 || canceled.Result.Lower > canceled.Result.Upper {
		t.Fatalf("incoherent partial interval: %+v", canceled.Result)
	}
	if canceled.Result.Optimal {
		t.Fatalf("canceled mid-solve yet optimal: %+v", canceled.Result)
	}
	if got := metric(t, ts, "rbserve_jobs_canceled_total"); got != 1 {
		t.Fatalf("jobs_canceled_total = %d, want 1", got)
	}
}

// TestCancelQueuedJob: canceling a job that has not started yet
// finalizes it immediately and the worker skips it.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1})
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	var startedOnce sync.Once
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		startedOnce.Do(func() { close(started) })
		<-gate
		return anytime.Solve(ctx, p, anytime.Options{})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(g json.RawMessage) string {
		resp, err := http.Post(ts.URL+"/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"async":true}`, g)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jr JobResponse
		json.NewDecoder(resp.Body).Decode(&jr)
		return jr.ID
	}
	submit(dagJSON(t, daggen.Pyramid(4))) // occupies the single worker
	<-started
	queuedID := submit(dagJSON(t, daggen.Pyramid(5))) // stays queued

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/solve/"+queuedID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled JobResponse
	json.NewDecoder(dresp.Body).Decode(&canceled)
	dresp.Body.Close()
	if canceled.Status != "canceled" {
		t.Fatalf("queued job after DELETE = %q, want canceled", canceled.Status)
	}
	close(gate)
}

// TestShutdownGraceCancelsInflight: Shutdown must return once the
// grace period expires, with the in-flight solve canceled
// cooperatively (it produced a certified partial answer, not a hang).
func TestShutdownGraceCancelsInflight(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1, GracePeriod: 50 * time.Millisecond})
	running := make(chan struct{})
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		close(running)
		<-ctx.Done() // simulate a solve that only stops when canceled
		// Produce a real (heuristic) result so the response carries a
		// replayable trace, as a canceled real solve would.
		return anytime.Solve(context.Background(), p, anytime.Options{Budget: time.Millisecond})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"async":true}`, dagJSON(t, daggen.Pyramid(4)))
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	<-running

	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return within grace + margin")
	}
	if !s.Draining() {
		t.Fatal("Shutdown did not drain")
	}
}

// TestBadRequests covers the error paths.
func TestBadRequests(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		wantCode   int
	}{
		{"empty", `{}`, http.StatusUnprocessableEntity},
		{"bad json", `{`, http.StatusBadRequest},
		{"bad model", fmt.Sprintf(`{"dag":%s,"model":"nope"}`, dagJSON(t, daggen.Chain(3))), http.StatusUnprocessableEntity},
		{"r too small", fmt.Sprintf(`{"dag":%s,"r":1}`, dagJSON(t, daggen.Pyramid(3))), http.StatusUnprocessableEntity},
		{"negative r", fmt.Sprintf(`{"dag":%s,"r":-1}`, dagJSON(t, daggen.Pyramid(3))), http.StatusUnprocessableEntity},
		{"eps too small", fmt.Sprintf(`{"dag":%s,"model":"compcost","eps_denom":1}`, dagJSON(t, daggen.Chain(3))), http.StatusUnprocessableEntity},
		{"bad async", `{"async":true}`, http.StatusUnprocessableEntity},
		// The declared node count is rejected before the graph is
		// materialized — a 50-byte body must not allocate 2B nodes.
		{"huge node count", `{"dag":{"nodes":2000000000,"edges":[]}}`, http.StatusUnprocessableEntity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw := postSolve(t, ts, tc.body)
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d (%s)", code, tc.wantCode, raw)
			}
		})
	}
	// Instances no solve could pebble are rejected at parse time: none
	// reaches the cache or counts as a solve.
	for _, name := range []string{"rbserve_solves_total", "rbserve_cache_misses_total"} {
		if got := metric(t, ts, name); got != 0 {
			t.Fatalf("%s = %d after bad requests, want 0", name, got)
		}
	}
	resp, err := http.Get(ts.URL + "/solve/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestHealthz sanity-checks the probe.
func TestHealthz(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestCancelSharedFlightProtectsWaiters: DELETE on a job whose solve
// other concurrent identical requests are waiting on must NOT cancel
// the shared solve — the flight is canceled only when every interested
// request has canceled.
func TestCancelSharedFlightProtectsWaiters(t *testing.T) {
	// Two heavy workers: the leader job holds one, and the sync waiter
	// needs the other to reach (and latch onto) the flight.
	s := New(Config{HeavyLaneWorkers: 2})
	defer s.Close()
	gate := make(chan struct{})
	leaderCtx := make(chan context.Context, 1)
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		leaderCtx <- ctx
		<-gate
		if err := ctx.Err(); err != nil {
			return anytime.Result{}, err
		}
		return anytime.Solve(context.Background(), p, anytime.Options{})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := dagJSON(t, daggen.Pyramid(4))
	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"async":true}`, g)))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	fctx := <-leaderCtx // the async job is the flight leader

	// A sync request for the same instance latches onto the flight.
	syncDone := make(chan SolveResponse, 1)
	go func() {
		_, sr, _ := postSolve(t, ts, fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, g))
		syncDone <- sr
	}()
	for {
		if s.cache.Stats().SharedFlights >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Cancel the leader job: one of two interested requests — the
	// shared solve must keep running.
	delDone := make(chan struct{})
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/solve/"+jr.ID, nil)
		r, err := http.DefaultClient.Do(req)
		if err == nil {
			r.Body.Close()
		}
		close(delDone)
	}()
	time.Sleep(50 * time.Millisecond)
	if fctx.Err() != nil {
		t.Fatal("one job's DELETE canceled a flight another request was waiting on")
	}
	close(gate)
	sr := <-syncDone
	if !sr.Optimal {
		t.Fatalf("waiter got a degraded result after the leader's DELETE: %+v", sr)
	}
	<-delDone
}

// TestAbandonedSharedFlightStops: once every request waiting on a
// shared solve has canceled, the solve itself is canceled, and every
// job that waited on it ends canceled.
func TestAbandonedSharedFlightStops(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 2})
	defer s.Close()
	leaderCtx := make(chan context.Context, 1)
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		leaderCtx <- ctx
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
		// A replayable (heuristic) result, as a canceled real solve
		// would return.
		return anytime.Solve(context.Background(), p, anytime.Options{Budget: time.Millisecond})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func() string {
		resp, err := http.Post(ts.URL+"/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"async":true}`, dagJSON(t, daggen.Pyramid(4)))))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jr JobResponse
		json.NewDecoder(resp.Body).Decode(&jr)
		return jr.ID
	}
	cancelJob := func(id string) string {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/solve/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jr JobResponse
		json.NewDecoder(resp.Body).Decode(&jr)
		return jr.Status
	}

	leader := submit()
	fctx := <-leaderCtx
	waiter := submit()
	for s.cache.Stats().SharedFlights < 1 {
		time.Sleep(time.Millisecond)
	}

	if st := cancelJob(waiter); st != "canceled" {
		t.Fatalf("waiter job after DELETE = %q, want canceled", st)
	}
	if fctx.Err() != nil {
		t.Fatal("the waiter's DELETE canceled a flight its leader still waits on")
	}
	if st := cancelJob(leader); st != "canceled" {
		t.Fatalf("leader job after DELETE = %q, want canceled", st)
	}
	select {
	case <-fctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the solve kept running after every waiting request canceled")
	}
}
