package service

import (
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

// getTrace fetches one trace's span view from /debug/trace/{id}.
func getTrace(t *testing.T, ts *httptest.Server, id string) (int, obs.TraceView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv obs.TraceView
	json.NewDecoder(resp.Body).Decode(&tv)
	return resp.StatusCode, tv
}

// getSolves fetches the telemetry ring from /debug/solves.
func getSolves(t *testing.T, ts *httptest.Server, n int) SolvesDebugResponse {
	t.Helper()
	url := ts.URL + "/debug/solves"
	if n > 0 {
		url += fmt.Sprintf("?n=%d", n)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/solves status %d", resp.StatusCode)
	}
	var out SolvesDebugResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceEndToEnd: one synchronous solve produces the full span
// pipeline — canonicalize, cache-probe, lane-queue, cache, engine —
// with non-zero durations, queryable by the client-supplied trace ID.
func TestTraceEndToEnd(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const traceID = "e2e-test-trace-0001"
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(4)))
	req, _ := http.NewRequest("POST", ts.URL+"/solve", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Fatalf("response trace header = %q, want %q", got, traceID)
	}

	code, tv := getTrace(t, ts, traceID)
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	if tv.TraceID != traceID {
		t.Fatalf("trace view id = %q", tv.TraceID)
	}
	byName := map[string]obs.SpanView{}
	engines := 0
	for _, sv := range tv.Spans {
		byName[sv.Name] = sv
		if strings.HasPrefix(sv.Name, "engine:") {
			engines++
		}
	}
	for _, name := range []string{"canonicalize", "cache-probe", "lane-queue", "cache", "translate"} {
		sv, ok := byName[name]
		if !ok {
			t.Fatalf("span %q missing; got %+v", name, tv.Spans)
		}
		if sv.DurationMS <= 0 {
			t.Fatalf("span %q has zero duration", name)
		}
	}
	if engines == 0 {
		t.Fatalf("no engine span recorded; got %+v", tv.Spans)
	}
	if byName["lane-queue"].Attrs["lane"] != "heavy" {
		t.Fatalf("lane-queue attrs = %v, want lane=heavy", byName["lane-queue"].Attrs)
	}
	// The engine spans must nest under the cache span (via the flight
	// graft), so the tree shows where the solve time went.
	cacheID := byName["cache"].ID
	for _, sv := range tv.Spans {
		if strings.HasPrefix(sv.Name, "engine:") && sv.Parent != cacheID {
			t.Fatalf("engine span %q parent = %d, want cache span %d", sv.Name, sv.Parent, cacheID)
		}
	}
}

// TestTraceHeaderOnShedAndDrain: the trace header must ride rejection
// responses too — a 429 lane shed and a draining 503.
func TestTraceHeaderOnShedAndDrain(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1, heavyLaneQueue: 1})
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		started <- struct{}{}
		<-gate
		return anytime.Solve(ctx, p, anytime.Options{})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(g int) *http.Response {
		body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(g)))
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	var wg sync.WaitGroup
	results := make(chan *http.Response, 2)
	wg.Add(1)
	go func() { defer wg.Done(); results <- post(3) }()
	<-started // the single heavy worker is now gated on solve #1
	wg.Add(1)
	go func() { defer wg.Done(); results <- post(4) }()
	for i := 0; s.lanes.heavy.depth() < 1; i++ { // solve #2 queued
		if i > 5000 {
			t.Fatal("second solve never queued")
		}
		time.Sleep(time.Millisecond)
	}

	shed := post(5) // queue full: must shed, and still carry a trace ID
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third solve status %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get(obs.TraceHeader) == "" {
		t.Fatal("shed 429 missing trace header")
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("shed 429 missing Retry-After")
	}
	shed.Body.Close()

	close(gate)
	wg.Wait()
	close(results)
	for resp := range results {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gated solve status %d", resp.StatusCode)
		}
		if resp.Header.Get(obs.TraceHeader) == "" {
			t.Fatal("ok response missing trace header")
		}
		resp.Body.Close()
	}

	s.Drain()
	drained := post(6)
	defer drained.Body.Close()
	if drained.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", drained.StatusCode)
	}
	if drained.Header.Get(obs.TraceHeader) == "" {
		t.Fatal("draining 503 missing trace header")
	}
}

// TestTelemetryDispositions drives one solve through each cache
// disposition — cold, hit, warm, shared — plus a failed solve, and
// checks the /debug/solves record for each.
func TestTelemetryDispositions(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 4})
	defer s.Close()
	gate := make(chan struct{})
	var gateOnce sync.Once
	started := make(chan struct{}, 8)
	failN := daggen.Pyramid(6).N()
	gateN := daggen.Pyramid(5).N()
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		switch p.G.N() {
		case failN:
			return anytime.Result{}, context.DeadlineExceeded
		case gateN:
			started <- struct{}{}
			<-gate
		}
		return anytime.Solve(ctx, p, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(g int) (int, SolveResponse) {
		body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(g)))
		code, sr, _ := postSolve(t, ts, body)
		return code, sr
	}
	// recordFor picks the newest record whose feature vector matches
	// the pyramid size.
	recordFor := func(g int) obs.SolveRecord {
		t.Helper()
		n := daggen.Pyramid(g).N()
		for _, rec := range getSolves(t, ts, 0).Records {
			if rec.Features.N == n {
				return rec
			}
		}
		t.Fatalf("no telemetry record for pyramid(%d)", g)
		return obs.SolveRecord{}
	}

	// Cold: first sight of the instance runs the engines.
	if code, _ := post(3); code != http.StatusOK {
		t.Fatalf("cold solve status %d", code)
	}
	cold := recordFor(3)
	if cold.Disposition != "cold" || !cold.Optimal || cold.Engine == "" {
		t.Fatalf("cold record = %+v", cold)
	}
	if cold.Features.Delta <= 0 || cold.Features.Depth <= 0 || cold.TraceID == "" {
		t.Fatalf("cold record incomplete: %+v", cold)
	}
	if cold.Expanded == 0 {
		t.Fatalf("cold record reports no search effort: %+v", cold)
	}

	// Hit: the repeat is served by the pre-dispatch probe.
	if code, sr := post(3); code != http.StatusOK || !sr.Cached {
		t.Fatalf("repeat not a cache hit: %d %+v", code, sr)
	}
	if hit := recordFor(3); hit.Disposition != "hit" {
		t.Fatalf("hit record = %+v", hit)
	}

	// Warm: a cached non-optimal interval (imported, as if handed off
	// by a draining peer) warm-starts the next solve of that instance.
	warmG := daggen.Pyramid(4)
	prob, err := BuildProblem(SolveRequest{DAG: dagJSON(t, warmG), Model: "oneshot", R: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := instcache.Instance{G: prob.G, Model: prob.Model, R: prob.R, Convention: prob.Convention}
	key, _ := inst.Key()
	// Tier 5 sits below the request's budget tier, so the pre-dispatch
	// probe misses (a higher-tier interval would be served outright)
	// and the interval instead warm-starts the flight.
	imported := s.cache.Import([]instcache.Entry{{
		Key:   key,
		Value: instcache.Value{UpperScaled: 1 << 40, LowerScaled: 1, Optimal: false, Source: "greedy", Tier: 5},
	}})
	if imported != 1 {
		t.Fatalf("imported %d entries, want 1", imported)
	}
	if code, sr := post(4); code != http.StatusOK || !sr.Warmed {
		t.Fatalf("warm solve: %d %+v", code, sr)
	}
	if warm := recordFor(4); warm.Disposition != "warm" {
		t.Fatalf("warm record = %+v", warm)
	}

	// Shared: two concurrent identical solves, one flight.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _ := post(5); code != http.StatusOK {
				t.Errorf("gated solve failed")
			}
		}()
	}
	<-started
	// Both requests must be inside the singleflight before the gate
	// opens, or the second becomes a plain cache hit. Both count as
	// misses on entering Do; the cold and warm solves above added 2.
	for i := 0; metric(t, ts, "rbserve_cache_misses_total") < 4; i++ {
		if i > 5000 {
			t.Fatal("second request never latched onto the flight")
		}
		time.Sleep(time.Millisecond)
	}
	gateOnce.Do(func() { close(gate) })
	wg.Wait()
	var sawShared, sawCold bool
	for _, rec := range getSolves(t, ts, 0).Records {
		if rec.Features.N == gateN {
			switch rec.Disposition {
			case "shared":
				sawShared = true
			case "cold":
				sawCold = true
			}
		}
	}
	if !sawShared || !sawCold {
		t.Fatalf("shared flight records: shared=%v cold=%v", sawShared, sawCold)
	}

	// Canceled/failed: the record keeps the error and the canceled flag.
	if code, _ := post(6); code != http.StatusServiceUnavailable {
		t.Fatalf("failed solve status %d, want 503", code)
	}
	failed := recordFor(6)
	if failed.Err == "" || !failed.Canceled {
		t.Fatalf("failed record = %+v", failed)
	}
}

// TestDebugSolvesOrdering: records come back newest first and ?n
// truncates.
func TestDebugSolvesOrdering(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, g := range []int{3, 4} {
		body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(g)))
		if code, _, raw := postSolve(t, ts, body); code != http.StatusOK {
			t.Fatalf("solve status %d: %s", code, raw)
		}
	}
	all := getSolves(t, ts, 0)
	if all.Total != 2 || len(all.Records) != 2 {
		t.Fatalf("total=%d records=%d, want 2/2", all.Total, len(all.Records))
	}
	if all.Records[0].Start.Before(all.Records[1].Start) {
		t.Fatal("records not newest-first")
	}
	one := getSolves(t, ts, 1)
	if one.Total != 2 || len(one.Records) != 1 {
		t.Fatalf("n=1: total=%d records=%d", one.Total, len(one.Records))
	}
	if one.Records[0].Features.N != daggen.Pyramid(4).N() {
		t.Fatalf("n=1 returned the older record: %+v", one.Records[0])
	}
	if one.Records[0].WallMS <= 0 || one.Records[0].BudgetMS <= 0 {
		t.Fatalf("record missing timing: %+v", one.Records[0])
	}
}

// TestDebugTraceUnknown: unknown IDs 404.
func TestDebugTraceUnknown(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := getTrace(t, ts, "never-registered-id"); code != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", code)
	}
}
