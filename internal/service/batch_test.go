package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/solve"
)

// permuted returns an isomorphic copy of g under a seeded random node
// permutation — canonically identical, differently labeled.
func permuted(g *dag.DAG, seed int64) *dag.DAG {
	perm := rand.New(rand.NewSource(seed)).Perm(g.N())
	h := dag.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			h.AddEdge(dag.NodeID(perm[v]), dag.NodeID(perm[w]))
		}
	}
	return h
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (int, BatchResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var br BatchResponse
	json.Unmarshal(buf.Bytes(), &br)
	return resp.StatusCode, br, buf.String()
}

func batchBody(t *testing.T, deadlineMS int, graphs ...*dag.DAG) string {
	t.Helper()
	items := make([]string, len(graphs))
	for i, g := range graphs {
		items[i] = fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, g))
	}
	return fmt.Sprintf(`{"items":[%s],"deadline_ms":%d}`, strings.Join(items, ","), deadlineMS)
}

// TestBatchDedupFunnelsToOneSolve: a batch of isomorphic relabelings
// performs exactly one canonicalization-class solve; every item still
// gets its own certified, replay-verified answer, streamed in request
// order.
func TestBatchDedupFunnelsToOneSolve(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := daggen.Pyramid(4)
	graphs := []*dag.DAG{base}
	for i := 1; i < 8; i++ {
		graphs = append(graphs, permuted(base, int64(i)))
	}
	code, br, raw := postBatch(t, ts, batchBody(t, 2000, graphs...))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(br.Items) != 8 {
		t.Fatalf("got %d items, want 8: %s", len(br.Items), raw)
	}
	var want float64
	for i, item := range br.Items {
		if item.Index != i {
			t.Fatalf("item %d streamed out of order (index %d)", i, item.Index)
		}
		if item.Error != "" || item.Result == nil {
			t.Fatalf("item %d failed: %+v", i, item)
		}
		if !item.Result.Optimal {
			t.Fatalf("item %d not optimal: %+v", i, item.Result)
		}
		if i == 0 {
			want = item.Result.Cost
		} else if item.Result.Cost != want {
			t.Fatalf("item %d cost %v != item 0 cost %v", i, item.Result.Cost, want)
		}
	}
	if br.Summary.Solves != 1 || br.Summary.Deduped != 7 || br.Summary.OK != 8 {
		t.Fatalf("summary: %+v", br.Summary)
	}
	if got := metric(t, ts, "rbserve_solves_total"); got != 1 {
		t.Fatalf("solves_total = %d, want 1 (in-batch dedup must funnel to one solve)", got)
	}
	if got := metric(t, ts, "rbserve_batch_dedup_total"); got != 7 {
		t.Fatalf("batch_dedup_total = %d, want 7", got)
	}
	if got := metric(t, ts, "rbserve_batch_items_total"); got != 8 {
		t.Fatalf("batch_items_total = %d, want 8", got)
	}
	// The latency histogram observed every item; the per-lane depth
	// gauges are exported.
	if got := metric(t, ts, `rbserve_request_seconds_bucket{le="+Inf"}`); got < 8 {
		t.Fatalf("request_seconds +Inf bucket = %d, want >= 8", got)
	}
	metric(t, ts, `rbserve_queue_depth{lane="fast"}`)
	metric(t, ts, `rbserve_queue_depth{lane="heavy"}`)
}

// TestBatchItemErrorsDontPoisonSiblings: invalid items fail alone with
// per-item errors; valid items in the same batch still solve.
func TestBatchItemErrorsDontPoisonSiblings(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := daggen.Pyramid(4)
	body := fmt.Sprintf(`{"items":[
		{"dag":%s,"model":"oneshot","r":3},
		{"dag":%s,"model":"warp-drive","r":3},
		{"model":"oneshot","r":3},
		{"dag":%s,"model":"oneshot","r":3}
	],"deadline_ms":2000}`, dagJSON(t, g), dagJSON(t, g), dagJSON(t, permuted(g, 99)))
	code, br, raw := postBatch(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if br.Items[0].Error != "" || br.Items[3].Error != "" {
		t.Fatalf("valid items poisoned: %+v / %+v", br.Items[0], br.Items[3])
	}
	if !br.Items[0].Result.Optimal || !br.Items[3].Result.Optimal {
		t.Fatalf("valid items not optimal: %+v / %+v", br.Items[0].Result, br.Items[3].Result)
	}
	for _, i := range []int{1, 2} {
		if br.Items[i].Error == "" || br.Items[i].Status != http.StatusUnprocessableEntity {
			t.Fatalf("invalid item %d not rejected: %+v", i, br.Items[i])
		}
	}
	if br.Summary.OK != 2 || br.Summary.Errors != 2 || br.Summary.Solves != 1 || br.Summary.Deduped != 1 {
		t.Fatalf("summary: %+v", br.Summary)
	}
}

// TestBatchFastLaneUnderHeavySaturation: with the heavy lane pinned by
// a gated solve, a cache-served batch item still completes within its
// deadline through the fast lane — no head-of-line blocking across
// cost classes.
func TestBatchFastLaneUnderHeavySaturation(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1, heavyLaneQueue: 2, FastLaneWorkers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Prime the cache with the real solver, then gate every later solve.
	cached := daggen.Pyramid(4)
	code, _, raw := postSolve(t, ts, fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, cached)))
	if code != http.StatusOK {
		t.Fatalf("prime: status %d: %s", code, raw)
	}
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		started <- struct{}{}
		<-gate
		return anytime.Solve(ctx, p, anytime.Options{})
	}
	defer close(gate)

	// Saturate the heavy lane: a distinct uncached instance whose
	// deadline exceeds the fast-lane budget blocks the only heavy
	// worker.
	heavyDone := make(chan BatchResponse, 1)
	go func() {
		_, br, _ := postBatch(t, ts, batchBody(t, 2000, daggen.Chain(9)))
		heavyDone <- br
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("heavy solve never started")
	}

	// The cache-served item must ride the fast lane past the blocked
	// heavy worker, well within its deadline.
	t0 := time.Now()
	code, br, raw := postBatch(t, ts, batchBody(t, 2000, permuted(cached, 7)))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cache-hit batch item took %s behind a saturated heavy lane", elapsed)
	}
	item := br.Items[0]
	if item.Error != "" || item.Result == nil || !item.Result.Cached {
		t.Fatalf("expected cache-served item, got %+v", item)
	}
	if item.Lane != "fast" {
		t.Fatalf("cache-served item rode lane %q, want fast", item.Lane)
	}

	gate <- struct{}{} // release the heavy solve (close(gate) frees any rest)
	select {
	case br := <-heavyDone:
		if br.Items[0].Lane != "heavy" {
			t.Fatalf("uncached long-budget item rode lane %q, want heavy", br.Items[0].Lane)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("heavy batch never completed")
	}
}

// TestBatchAdmissionControlSheds: once the heavy lane's queue is full,
// further heavy groups are shed with per-item 429s, and a batch that is
// shed whole gets the whole-request 429 + Retry-After.
func TestBatchAdmissionControlSheds(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1, heavyLaneQueue: 1, FastLaneWorkers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		started <- struct{}{}
		<-gate
		return anytime.Solve(ctx, p, anytime.Options{})
	}
	defer close(gate)

	// Pin the single heavy worker...
	pinned := make(chan struct{})
	go func() {
		defer close(pinned)
		postBatch(t, ts, batchBody(t, 2000, daggen.Chain(9)))
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("pinning solve never started")
	}
	// ...then fill its queue (the worker is blocked, so this group
	// stays queued) alongside two groups that must shed.
	mixed := make(chan BatchResponse, 1)
	go func() {
		_, br, _ := postBatch(t, ts, batchBody(t, 2000, daggen.Chain(10), daggen.Chain(11), daggen.Chain(12)))
		mixed <- br
	}()
	// The queued group occupies the heavy lane's only slot; poll until
	// the two overflow groups were shed.
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, ts, "rbserve_batch_shed_total") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("overflow groups never shed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// With the queue still full, a batch of all-new heavy work is shed
	// whole: whole-request 429 with a Retry-After estimate.
	resp, err := http.Post(ts.URL+"/solve/batch", "application/json",
		strings.NewReader(batchBody(t, 2000, daggen.Chain(13))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fully-shed batch status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fully-shed batch missing Retry-After")
	}

	gate <- struct{}{} // release the pinning solve
	gate <- struct{}{} // release the queued mixed-batch group
	<-pinned
	br := <-mixed
	var shed int
	for _, item := range br.Items {
		if item.Status == http.StatusTooManyRequests {
			shed++
			if !strings.Contains(item.Error, "saturated") {
				t.Fatalf("shed item error %q", item.Error)
			}
		}
	}
	if shed != 2 {
		t.Fatalf("mixed batch shed %d items, want 2: %+v", shed, br.Items)
	}
}

// TestBatchItemLatencyFromRequestStart: a batch item's elapsed_ms and
// its rbserve_request_seconds sample run from the request start, so
// they cover the item's solve, not just its translation.
func TestBatchItemLatencyFromRequestStart(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		time.Sleep(50 * time.Millisecond)
		return anytime.Solve(ctx, p, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, br, raw := postBatch(t, ts, batchBody(t, 2000, daggen.Pyramid(4)))
	if code != http.StatusOK || len(br.Items) != 1 || br.Items[0].Result == nil {
		t.Fatalf("status %d: %s", code, raw)
	}
	if res := br.Items[0].Result; res.Cached || res.ElapsedMS < 50 {
		t.Fatalf("cold item elapsed_ms = %v (cached %v), want >= 50", res.ElapsedMS, res.Cached)
	}
	const name = "rbserve_request_seconds_sum "
	m := scrapeMetrics(t, ts)
	i := strings.Index(m, "\n"+name)
	if i < 0 {
		t.Fatalf("%s missing:\n%s", name, m)
	}
	line, _, _ := strings.Cut(m[i+1+len(name):], "\n")
	if sum, err := strconv.ParseFloat(line, 64); err != nil || sum < 0.05 {
		t.Fatalf("%s= %q, want >= 0.05", name, line)
	}
}

// TestBatchRunningUnitSurvivesClose: the shutdown rule of a single
// solve holds for batches too — a unit already running when Close
// fires still delivers its interval instead of "server shutting down".
func TestBatchRunningUnitSurvivesClose(t *testing.T) {
	s := New(Config{})
	gate := make(chan struct{})
	started := make(chan struct{})
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		close(started)
		<-gate
		return anytime.Solve(ctx, p, anytime.Options{})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan BatchResponse, 1)
	go func() {
		_, br, _ := postBatch(t, ts, batchBody(t, 2000, daggen.Pyramid(4)))
		done <- br
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("solve never started")
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	<-s.closed
	time.Sleep(20 * time.Millisecond) // let the stream see Close first
	close(gate)
	br := <-done
	<-closed
	if len(br.Items) != 1 || br.Items[0].Error != "" || br.Items[0].Result == nil || !br.Items[0].Result.Optimal {
		t.Fatalf("running unit lost its result at Close: %+v", br.Items)
	}
}
