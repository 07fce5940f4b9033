// Package service is the rbserve HTTP layer: a JSON API over the
// anytime orchestrator with a canonical instance cache, singleflight
// deduplication of concurrent identical solves, one two-lane scheduler
// for sync, async and batched work, per-request deadlines and
// operational metrics.
//
// Endpoints:
//
//	POST   /solve                     solve an instance (async=true enqueues a job)
//	POST   /solve/batch               solve many instances, streamed in request order
//	GET    /solve/{id}                poll an async job
//	DELETE /solve/{id}                cancel an async job, keeping its partial interval
//	GET    /healthz                   liveness probe
//	GET    /metrics                   Prometheus-style counters
//	POST   /cache/import              merge cache entries pushed by cluster peers
//	GET    /debug/solves              recent per-solve telemetry records
//	GET    /debug/trace/{id}          one request's span tree
//	GET    /debug/jobs/{id}/search    a job's live engine snapshot
//
// A POST /solve is a one-item batch: both endpoints run the same
// prepare → admit → runUnit path (see batch.go).
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/dag"
	"rbpebble/internal/instcache"
	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// Config tunes a Server. Zero values select the defaults, which
// DefaultConfig returns filled in.
type Config struct {
	// CacheSize bounds the solution LRU (default 256 entries).
	CacheSize int
	// DefaultDeadline applies when a request has no deadline_ms
	// (default 2s). MaxDeadline clamps requested deadlines (default 30s).
	DefaultDeadline, MaxDeadline time.Duration
	// MaxNodes rejects instances above this size (default 100000). It
	// is enforced before the graph is materialized, so a tiny request
	// body declaring a huge node count cannot allocate.
	MaxNodes int
	// MaxBodyBytes caps the request body (default 64 MiB).
	MaxBodyBytes int64
	// GracePeriod bounds how long Shutdown waits for in-flight solves
	// before canceling them cooperatively (default 10s). Canceled
	// solves still return certified partial intervals.
	GracePeriod time.Duration
	// MaxBatchItems caps how many instances one POST /solve/batch may
	// carry (default 256).
	MaxBatchItems int
	// FastLaneWorkers/HeavyLaneWorkers size the two scheduling lanes
	// (defaults 4 and 2) that run every solve: sync, async and batched.
	// The fast lane runs work a cache probe can serve and work whose
	// whole budget is at most fastLaneBudget; the heavy lane runs
	// everything that may hold a worker for a long exact solve, so
	// HeavyLaneWorkers bounds the node's concurrent exact solves.
	FastLaneWorkers, HeavyLaneWorkers int
	// Replicate, when set, receives every cache entry this node newly
	// produced (proven-optimal values and tightened intervals, in
	// canonical numbering) so the cluster agent can push it to the
	// key's next owner in rendezvous order — crash safety for the
	// cache. Called from the request path; implementations must not
	// block.
	Replicate func(instcache.Entry)
	// EventSink, when non-nil, receives the node's event log (rbserve
	// -event-log): one JSON line per solve record and per live engine
	// snapshot sampled during a solve, each stamped with the solve's
	// trace ID (see obs.EventRow).
	EventSink io.Writer
	// MaxTableBytes caps each solve's visited-table memory (0 =
	// unlimited): an exact engine that outgrows the budget aborts with a
	// certified partial interval instead of taking the node down.
	// Threaded to anytime.Options.MaxTableBytes.
	MaxTableBytes int64
	// Logger receives structured request/job lifecycle logs with trace
	// and job IDs attached (default: discard).
	Logger *slog.Logger

	// heavyLaneQueue bounds the heavy lane's backlog (default 64); a
	// test seam, so a test can fill the lane with a unit or two.
	heavyLaneQueue int
}

const (
	// fastLaneQueue bounds the fast lane's backlog; a full lane sheds
	// its items with 429 + Retry-After instead of queueing cheap work
	// behind expensive work.
	fastLaneQueue = 256
	// fastLaneBudget is the largest per-item deadline the fast lane
	// accepts for uncached work: an item that can hold a fast-lane
	// worker for at most this long cannot head-of-line block the
	// cache-served traffic behind it.
	fastLaneBudget = 150 * time.Millisecond
	// traceCap bounds the /debug/trace/{id} recorder ring and
	// telemetryCap the /debug/solves telemetry ring (most recent
	// traces and solve records).
	traceCap     = 256
	telemetryCap = 512
)

// DefaultConfig returns the configuration New runs with when given
// Config{}: every default filled in.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 100000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.GracePeriod <= 0 {
		c.GracePeriod = 10 * time.Second
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.FastLaneWorkers <= 0 {
		c.FastLaneWorkers = 4
	}
	if c.HeavyLaneWorkers <= 0 {
		c.HeavyLaneWorkers = 2
	}
	if c.heavyLaneQueue <= 0 {
		c.heavyLaneQueue = 64
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// keepJobs bounds how many finished async jobs stay pollable; the
// oldest finished jobs are dropped beyond it.
const keepJobs = 1024

// SolveRequest is the POST /solve body.
type SolveRequest struct {
	// DAG is the graph in the library's JSON form:
	// {"nodes": n, "edges": [[u,v], ...]}. It stays raw until the node
	// count has been checked against Config.MaxNodes, so a malicious
	// 50-byte body declaring two billion nodes never allocates them.
	DAG json.RawMessage `json:"dag"`
	// Model is base|oneshot|nodel|compcost (default oneshot);
	// EpsDenom is the compcost ε denominator (default 100).
	Model    string `json:"model,omitempty"`
	EpsDenom int    `json:"eps_denom,omitempty"`
	// R is the red-pebble limit (default Δ+1, the minimum feasible).
	R int `json:"r,omitempty"`
	// Convention flags (Appendix C).
	SourcesStartBlue bool `json:"sources_start_blue,omitempty"`
	SinksMustBeBlue  bool `json:"sinks_must_be_blue,omitempty"`
	// DeadlineMS is the solve budget in milliseconds (0 = server
	// default; clamped to the server maximum).
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Async enqueues the solve and returns a job ID immediately.
	Async bool `json:"async,omitempty"`
	// IncludeTrace adds the verified move sequence to the response.
	IncludeTrace bool `json:"include_trace,omitempty"`
}

// MoveJSON is one trace move on the wire.
type MoveJSON struct {
	Op   string `json:"op"`
	Node int    `json:"node"`
}

// SolveResponse is the solve result on the wire: the certified
// [lower, upper] interval, incumbent cost and provenance.
type SolveResponse struct {
	Cost      float64    `json:"cost"`
	Upper     float64    `json:"upper"`
	Lower     float64    `json:"lower"`
	Gap       float64    `json:"gap"`
	Optimal   bool       `json:"optimal"`
	Source    string     `json:"source"`
	Cached    bool       `json:"cached"`
	Shared    bool       `json:"shared"`
	Warmed    bool       `json:"warm_started,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Moves     []MoveJSON `json:"moves,omitempty"`
}

// JobResponse is the async job envelope.
type JobResponse struct {
	ID     string         `json:"id"`
	Status string         `json:"status"` // queued|running|done|error
	Error  string         `json:"error,omitempty"`
	Result *SolveResponse `json:"result,omitempty"`
}

type job struct {
	id string
	// traceID correlates the job with the request that submitted it
	// (the job context carries the full trace, so the lane worker's
	// solve spans land on the submitting request's trace).
	traceID string

	// ctx is canceled by DELETE /solve/{id} (and by server shutdown once
	// the grace period expires); the solver layer turns the cancellation
	// into a certified partial interval instead of a wasted solve.
	ctx    context.Context
	cancel context.CancelFunc

	// lower is the live certified scaled lower bound of the running
	// solve, streamed from the orchestrator's progress snapshots.
	// Exposed while the job runs as the rbserve_job_lower_bound gauge.
	lower atomic.Int64

	// search is the most recent live engine-introspection snapshot of
	// the running solve (nil until the first sample; the last snapshot
	// is retained after completion). Served by
	// GET /debug/jobs/{id}/search and the rbserve_job_* search gauges.
	search atomic.Pointer[obs.SearchSnapshot]

	mu       sync.Mutex
	status   string
	resp     *SolveResponse
	errMsg   string
	canceled bool // cancellation requested (terminal status becomes "canceled")
	done     chan struct{}
}

func (j *job) snapshot() JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobResponse{ID: j.id, Status: j.status, Error: j.errMsg, Result: j.resp}
}

// terminal reports whether a job status is final.
func terminal(status string) bool {
	return status == "done" || status == "error" || status == "canceled"
}

func (j *job) set(status string, resp *SolveResponse, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.status) {
		return // terminal states are final
	}
	if j.canceled && terminal(status) {
		// A cancellation request wins the status; the partial certified
		// interval (if any) is still attached.
		status = "canceled"
	}
	j.status, j.resp, j.errMsg = status, resp, errMsg
	if terminal(status) {
		// Release the job's context child from the server's baseCtx:
		// without this, every finished job would stay registered on
		// baseCtx for the process lifetime.
		j.cancel()
		close(j.done)
	}
}

// startRunning atomically claims a queued job for a lane worker. It returns
// false when a cancellation won the race (the job is already terminal
// and must be skipped) — the check and the transition share the lock,
// so DELETE can never interleave between them and later double-close
// j.done.
func (j *job) startRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled || terminal(j.status) {
		return false
	}
	j.status = "running"
	return true
}

// requestCancel flips the job to canceled: a queued job is finalized on
// the spot (its lane task will skip it), a running one has its context
// canceled — the solve layer harvests a certified partial interval and
// the lane task finalizes with it.
func (j *job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.status) || j.canceled {
		return
	}
	j.canceled = true
	j.cancel()
	if j.status == "queued" {
		j.status = "canceled"
		close(j.done)
	}
}

// metrics are the server's monotone counters (cache counters live in
// the cache itself).
type metrics struct {
	requests, solves, solveErrors                      atomic.Uint64
	jobsSubmitted, jobsDone, jobsFailed, jobsCanceled  atomic.Uint64
	jobsShed                                           atomic.Uint64
	batchRequests, batchItems, batchDeduped, batchShed atomic.Uint64
	// solvesMemLimited counts solves whose exact engines hit the
	// node's table-memory governor and certified a partial interval.
	solvesMemLimited atomic.Uint64
}

// requestSecondsBounds are the rbserve_request_seconds histogram bucket
// upper bounds, in seconds (+Inf is implicit). They span the plane's
// cost classes: sub-millisecond cache hits through multi-second exact
// solves.
var requestSecondsBounds = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10}

// histogram is a fixed-bucket latency histogram in the Prometheus
// exposition shape (cumulative le buckets, _sum, _count). Observation
// is two atomic adds — it sits on the request path.
type histogram struct {
	buckets [len(requestSecondsBounds) + 1]atomic.Uint64 // per-bucket (non-cumulative) counts
	sumNs   atomic.Uint64
	count   atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := 0
	for i < len(requestSecondsBounds) && secs > requestSecondsBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
	h.count.Add(1)
}

// write emits the histogram in Prometheus text form under name.
func (h *histogram) write(w io.Writer, name string) {
	var cum uint64
	for i, bound := range requestSecondsBounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.buckets[len(requestSecondsBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(float64(h.sumNs.Load())/1e9, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// Server is the rbserve HTTP service. Create with New, serve
// Handler(), stop with Close or (gracefully) Shutdown.
type Server struct {
	cfg   Config
	cache *instcache.Cache
	mux   *http.ServeMux
	lanes *lanes
	wg    sync.WaitGroup

	// reqSeconds is the rbserve_request_seconds histogram: every
	// completed solve request (sync, async job, batch item) observes its
	// end-to-end service latency.
	reqSeconds histogram

	jobMu    sync.Mutex
	jobs     map[string]*job
	jobOrder []string // submission order, for bounded retention
	jobSeq   atomic.Uint64
	// jobPrefix makes job IDs unique per server instance: behind a
	// routing proxy that fans GET/DELETE /solve/{id} across the fleet,
	// plain sequential IDs would collide between replicas and a poll
	// (or worse, a cancel) could land on another node's job.
	jobPrefix string

	m metrics

	// recorder retains recent traces for GET /debug/trace/{id}; tel is
	// the per-solve telemetry ring behind GET /debug/solves — the
	// feature store the learned portfolio scheduler consumes; events is
	// the event log (nil without Config.EventSink) that tel mirrors its
	// records to and the flight leaders write their snapshots to.
	recorder *obs.Recorder
	tel      *obs.SolveLog
	events   *obs.EventLog
	log      *slog.Logger

	// solveFn is the underlying solver, swappable in tests (e.g. to
	// gate concurrency deterministically).
	solveFn func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error)

	// start stamps process start for rbserve_uptime_seconds; version is
	// the main module version for rbserve_build_info.
	start   time.Time
	version string

	// baseCtx parents every solve; baseCancel fires when a graceful
	// shutdown exhausts its grace period, turning the surviving
	// in-flight solves into certified partial intervals.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining atomic.Bool
	closed   chan struct{}
	once     sync.Once
}

// New returns a started Server (its lane workers run until Close).
func New(cfg Config) *Server {
	var idSeed [6]byte
	rand.Read(idSeed[:])
	s := &Server{
		cfg:       cfg.withDefaults(),
		jobs:      make(map[string]*job),
		jobPrefix: hex.EncodeToString(idSeed[:]),
		solveFn:   anytime.Solve,
		closed:    make(chan struct{}),
		start:     time.Now(),
		version:   mainVersion(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.recorder = obs.NewRecorder(traceCap)
	s.events = obs.NewEventLog(s.cfg.EventSink)
	s.tel = obs.NewSolveLog(telemetryCap, s.events)
	s.log = s.cfg.Logger
	s.cache = instcache.New(s.cfg.CacheSize)
	s.lanes = newLanes(s.cfg)
	s.lanes.run(s.closed, &s.wg)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /solve", s.handleSolve)
	s.mux.HandleFunc("POST /solve/batch", s.handleSolveBatch)
	s.mux.HandleFunc("GET /solve/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /solve/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /cache/import", s.handleCacheImport)
	s.mux.HandleFunc("GET /debug/solves", s.handleDebugSolves)
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleDebugTrace)
	s.mux.HandleFunc("GET /debug/jobs/{id}/search", s.handleDebugJobSearch)
	return s
}

// mainVersion resolves the main module version stamped into the binary
// ("(devel)" for plain go build / go test).
func mainVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain puts the server into draining mode: /healthz starts failing
// (so a routing proxy stops sending new work here) and new solve
// submissions are refused with 503. Requests already in flight keep
// running. Drain is the first step of a graceful shutdown and may be
// called on its own.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain (or Shutdown) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the lane workers after their in-flight units complete.
// Units still queued on a lane are dropped (see await): a waiting sync
// request or batch item gets a 503 and an async job stays "queued". The
// lane channels are never closed, so submissions racing a shutdown get
// a 503 rather than a panic.
func (s *Server) Close() {
	s.once.Do(func() { close(s.closed) })
	s.wg.Wait()
	s.baseCancel()
}

// Shutdown is the graceful SIGTERM path: drain (healthz fails so the
// proxy reroutes), let in-flight solves finish for up to the
// configured grace period, then cancel the stragglers cooperatively —
// a canceled solve still produces a certified partial interval, which
// lands in the interval cache for the next node to warm-start from.
func (s *Server) Shutdown() { s.ShutdownWithin(s.cfg.GracePeriod) }

// ShutdownWithin is Shutdown with an explicit grace budget, for
// callers that share one overall deadline across several teardown
// steps (cmd/rbserve spends the same window on the HTTP listener
// first and passes the remainder here, so the total never exceeds
// the operator's -grace). grace <= 0 cancels in-flight solves
// immediately.
func (s *Server) ShutdownWithin(grace time.Duration) {
	s.Drain()
	s.once.Do(func() { close(s.closed) })
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	if grace <= 0 {
		s.baseCancel()
		<-finished
		return
	}
	select {
	case <-finished:
	case <-time.After(grace):
		s.baseCancel() // grace exhausted: harvest partial certificates
		<-finished
	}
	s.baseCancel()
}

// BuildProblem validates a solve request into a Problem. maxNodes <= 0
// means no size limit. The graph is materialized only after its
// declared node count passes the guard, so a tiny request body
// declaring a huge node count cannot allocate. It is exported so the
// cluster routing proxy can parse a request exactly the way the node
// will, compute its canonical instance key, and route on it.
func BuildProblem(req SolveRequest, maxNodes int) (solve.Problem, error) {
	if len(req.DAG) == 0 || string(req.DAG) == "null" {
		return solve.Problem{}, errors.New("missing dag")
	}
	var head struct {
		Nodes int `json:"nodes"`
	}
	if err := json.Unmarshal(req.DAG, &head); err != nil {
		return solve.Problem{}, fmt.Errorf("bad dag: %w", err)
	}
	if maxNodes > 0 && head.Nodes > maxNodes {
		return solve.Problem{}, fmt.Errorf("instance has %d nodes, limit %d", head.Nodes, maxNodes)
	}
	g := new(dag.DAG)
	if err := json.Unmarshal(req.DAG, g); err != nil {
		return solve.Problem{}, fmt.Errorf("bad dag: %w", err)
	}
	if maxNodes > 0 && g.N() > maxNodes {
		return solve.Problem{}, fmt.Errorf("instance has %d nodes, limit %d", g.N(), maxNodes)
	}
	name := req.Model
	if name == "" {
		name = pebble.Oneshot.String()
	}
	kind, err := pebble.ParseModelKind(name)
	if err != nil {
		return solve.Problem{}, err
	}
	model := pebble.NewModel(kind)
	if kind == pebble.CompCost && req.EpsDenom != 0 {
		model.EpsDenom = req.EpsDenom
	}
	r := req.R
	if r == 0 {
		r = pebble.MinFeasibleR(g)
	}
	// Reject what no solve could pebble here, before the instance takes
	// a lane slot and a cache flight.
	if err = pebble.ValidateInstance(g, model, r); err != nil {
		return solve.Problem{}, err
	}
	return solve.Problem{
		G: g, Model: model, R: r,
		Convention: pebble.Convention{
			SourcesStartBlue: req.SourcesStartBlue,
			SinksMustBeBlue:  req.SinksMustBeBlue,
		},
	}, nil
}

// parseRequest validates a request into a Problem and clamped deadline.
func (s *Server) parseRequest(req SolveRequest) (solve.Problem, time.Duration, error) {
	p, err := BuildProblem(req, s.cfg.MaxNodes)
	if err != nil {
		return solve.Problem{}, 0, err
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	return p, deadline, nil
}

// keyedResult is what one keyed solve served: the canonical cache
// value and how it was obtained.
type keyedResult struct {
	Val instcache.Value
	// Hit: served from the cache; Shared: latched onto another
	// request's flight; Warmed: this request's solve warm-started from
	// a cached interval.
	Hit, Shared, Warmed bool
}

// keyedSolve is one solve of a canonical cache key: the problem, which
// a flight solves in canonical numbering (a probe hit, which only
// records it, keeps the requester's), and its budget.
type keyedSolve struct {
	key      string
	p        solve.Problem
	deadline time.Duration
	// tier is the cache tier the solve probes and is credited at.
	tier int
	// onLower and onSearch, when non-nil, receive the orchestrator's
	// certified scaled lower-bound improvements and live engine
	// snapshots while the solve runs (async jobs feed their live gauges
	// and GET /debug/jobs/{id}/search from them). They fire only when
	// this caller leads the flight, not when it latches onto another's.
	onLower  func(int64)
	onSearch func(obs.SearchSnapshot)
}

// serveKey is the solve of a lane unit — sync, async and batched
// alike: the admission probe's value when the probe hit,
// otherwise one solveKey round trip on k's problem relabeled by perm,
// its key's permutation. ctx is this request's own: its cancellation
// (job DELETE, shutdown grace expiry) or its wait bound ends its wait,
// and the shared solve stops only once no other request still waits on
// it. start stamps a probe hit's record.
func (s *Server) serveKey(ctx context.Context, k keyedSolve, perm []dag.NodeID, probed *instcache.Value, start time.Time) (keyedResult, error) {
	if probed != nil {
		s.record(ctx, k, "hit", *probed, nil, start, nil)
		return keyedResult{Val: *probed, Hit: true}, nil
	}
	k.p.G = k.p.G.Relabel(perm)
	// This request's wait, and so its count on the flight, is bounded
	// by its own deadline (plus grace for the orchestrator's
	// non-interruptible heuristic phase) and by its cancellation —
	// joining a long-budget flight must not stall a short-deadline
	// client past its budget, nor pin a canceled job's worker.
	waitCtx, cancelWait := context.WithTimeout(ctx, k.deadline+2*time.Second)
	defer cancelWait()
	kr, err := s.solveKey(waitCtx, k)
	if err != nil {
		s.m.solveErrors.Add(1)
	}
	return kr, err
}

// flightRun is what a flight body observed, kept for the telemetry
// record of the caller that led the flight.
type flightRun struct {
	res      anytime.Result
	canceled bool
}

// solveKey runs serveKey's cache flight — warm-started from the cached
// certified interval when one exists, so repeated hard instances
// tighten across requests — then the telemetry record and, when this
// caller's own flight produced the stored entry, its replication. ctx
// bounds this caller's wait and counts it on the flight. The solve runs
// under the flight's context, which the cache cancels once no caller
// still waits on it; a canceled solve still returns a certified
// partial interval.
func (s *Server) solveKey(ctx context.Context, k keyedSolve) (keyedResult, error) {
	start := time.Now()
	// The cache span covers the whole flight: a hit ends it in
	// microseconds, a latched waiter spends it inside the nested
	// cache-wait span, and a flight leader nests the engine spans
	// under it.
	dctx, dsp := obs.StartSpan(ctx, "cache")
	// run is set only when this caller leads the flight; fn runs
	// synchronously on this goroutine when it runs at all.
	var run *flightRun
	val, hit, shared, warmed, err := s.cache.Flight(dctx, k.key, k.tier, func(fctx context.Context, warm *instcache.Value) (instcache.Value, error) {
		s.m.solves.Add(1)
		res, err := s.solveFn(fctx, k.p, s.solveOptions(k, warm, obs.TraceIDFrom(dctx)))
		if err != nil {
			return instcache.Value{}, err
		}
		if res.MemoryLimited {
			s.m.solvesMemLimited.Add(1)
		}
		run = &flightRun{res: res, canceled: fctx.Err() != nil}
		// A solve canceled well short of its budget (DELETE, shutdown
		// grace) only earned a lower tier: crediting the full tier would
		// let its weak interval be served to smaller-budget requests
		// that could genuinely tighten it. The half-budget threshold keeps normal deadline-limited solves
		// (elapsed ≈ budget, possibly a hair under) at their tier.
		tier := k.tier
		if res.Elapsed > 0 && res.Elapsed*2 < k.deadline {
			if t := instcache.TierForBudget(res.Elapsed); t < tier {
				tier = t
			}
		}
		return instcache.Value{
			Moves:       res.Solution.Trace.Moves,
			UpperScaled: res.UpperScaled,
			LowerScaled: res.LowerScaled,
			Optimal:     res.Optimal,
			Source:      res.Source,
			Tier:        tier,
		}, nil
	})
	dsp.End()
	disposition := "cold"
	switch {
	case hit:
		disposition = "hit"
	case shared:
		disposition = "shared"
	case warmed:
		disposition = "warm"
	}
	s.record(ctx, k, disposition, val, run, start, err)
	if err != nil {
		return keyedResult{}, err
	}
	if !hit && !shared && s.cfg.Replicate != nil {
		// This caller's own flight produced (or tightened) the stored
		// entry: push it toward the key's next owner so a hard crash of
		// this node doesn't lose it. Waiters latched onto the flight
		// would just duplicate the push.
		s.cfg.Replicate(instcache.Entry{Key: k.key, Value: val})
	}
	return keyedResult{Val: val, Hit: hit, Shared: shared, Warmed: warmed}, nil
}

// solveOptions builds one flight's orchestrator options: the deadline
// of k, the node's table-memory budget, k's live progress hooks, and
// the warm start from the cached certified interval (its incumbent
// trace, in the canonical numbering the flight solves in, seeds the
// engines' bounds; its lower bound skips already-completed work).
func (s *Server) solveOptions(k keyedSolve, warm *instcache.Value, traceID string) anytime.Options {
	opts := anytime.Options{
		Budget:        k.deadline,
		MaxTableBytes: s.cfg.MaxTableBytes,
	}
	if k.onLower != nil {
		opts.OnProgress = func(sn anytime.Snapshot) {
			if sn.LowerScaled > 0 {
				k.onLower(sn.LowerScaled)
			}
		}
	}
	if k.onSearch != nil || s.events != nil {
		// Live engine introspection fans out to the caller (async jobs
		// retain the latest snapshot) and to the event log. Only the
		// flight leader samples — latched waiters see nothing, which is
		// exactly right: there is one search, and one stream describing
		// it.
		opts.OnSearch = func(sn obs.SearchSnapshot) {
			if k.onSearch != nil {
				k.onSearch(sn)
			}
			s.events.Snapshot(traceID, sn)
		}
	}
	if warm != nil {
		opts.Warm = &anytime.WarmStart{
			Moves:       warm.Moves,
			LowerScaled: warm.LowerScaled,
			Source:      "cache:" + warm.Source,
		}
	}
	return opts
}

// record appends the telemetry record of one served key. Every
// completion — hit, cold, warm or shared; finished, canceled
// or failed — appends one: the feature store the portfolio scheduler
// trains on must see the failures and cancellations too. run is nil
// unless this caller led the flight.
func (s *Server) record(ctx context.Context, k keyedSolve, disposition string, val instcache.Value, run *flightRun, start time.Time, err error) {
	rec := obs.SolveRecord{
		TraceID:     obs.TraceIDFrom(ctx),
		Start:       start,
		Features:    obs.ComputeFeatures(k.p.G, k.p.R),
		Model:       k.p.Model.Kind.String(),
		Engine:      val.Source,
		BudgetMS:    k.deadline.Milliseconds(),
		Tier:        k.tier,
		Disposition: disposition,
		LowerScaled: val.LowerScaled,
		UpperScaled: val.UpperScaled,
		Optimal:     val.Optimal,
		WallMS:      float64(time.Since(start).Microseconds()) / 1000,
	}
	if run != nil {
		rec.Canceled = run.canceled
		rec.Expanded = uint64(run.res.Expanded)
		rec.TableBytes = uint64(run.res.TableBytes)
		rec.PeakFrontier = run.res.PeakFrontier
		rec.PeakRate = run.res.PeakRate
	}
	if err != nil {
		rec.Err = err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			rec.Canceled = true
		}
	}
	s.tel.Append(rec)
}

// buildResponse translates a canonical cache value back into one
// requester's node numbering, replay-verifies the trace on the
// requester's own graph, and shapes the wire response. In a batch,
// every member of a canonical-class group goes through its own
// buildResponse (k isomorphic items = 1 solve, k translations), so a
// translation failure poisons only its own item.
func (s *Server) buildResponse(ctx context.Context, p solve.Problem, kr keyedResult, perm []dag.NodeID, includeTrace bool, start time.Time) (SolveResponse, error) {
	_, tsp := obs.StartSpan(ctx, "translate")
	defer tsp.End()
	val := kr.Val
	moves := instcache.FromCanonical(val.Moves, perm)
	// Replay-verify on the requester's own graph: the response is
	// certified even when the moves crossed the cache through another
	// instance's labeling.
	tr := &pebble.Trace{Model: p.Model, R: p.R, Convention: p.Convention, Moves: moves}
	if _, err := tr.Run(p.G); err != nil {
		tsp.SetAttr("err", err.Error())
		s.m.solveErrors.Add(1)
		return SolveResponse{}, fmt.Errorf("cached trace failed verification: %w", err)
	}

	scale := anytime.CostScale(p.Model)
	resp := SolveResponse{
		Cost:      float64(val.UpperScaled) / scale,
		Upper:     float64(val.UpperScaled) / scale,
		Lower:     float64(val.LowerScaled) / scale,
		Gap:       anytime.Gap(val.UpperScaled, val.LowerScaled),
		Optimal:   val.Optimal,
		Source:    val.Source,
		Cached:    kr.Hit,
		Shared:    kr.Shared,
		Warmed:    kr.Warmed,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	if includeTrace {
		resp.Moves = make([]MoveJSON, len(moves))
		for i, m := range moves {
			resp.Moves[i] = MoveJSON{Op: m.Kind.String(), Node: int(m.Node)}
		}
	}
	return resp, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	start := time.Now()
	// The trace starts (or continues, when the proxy minted the ID)
	// before any rejection path, so even a draining 503 or a shed 429
	// carries the X-Rbpebble-Trace correlation header.
	ctx, _ := obs.StartRequest(w, r, s.recorder)
	if s.draining.Load() {
		// The header lets the routing proxy tell "this node is going
		// away, fail over" apart from per-request 503s (singleflight
		// wait timeout, shutdown race) that a healthy node also emits.
		// A saturated lane is not a 503: it sheds with 429.
		w.Header().Set("X-Rbserve-Draining", "1")
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	var req SolveRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// A single solve is a one-item batch: the same prepare → admit →
	// runUnit path. Asynchrony belongs to the request, not to its item.
	async := req.Async
	req.Async = false
	items := s.prepare(ctx, []SolveRequest{req}, 0, false)
	if err := items[0].err; err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	select {
	case <-s.closed:
		// Close has stopped the lane workers: nothing admitted now runs.
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
	}
	if async {
		s.submitJob(w, ctx, items, start)
		return
	}
	out := make([]BatchItem, 1)
	// The solve runs under baseCtx with the request's trace grafted on:
	// a client that disconnects mid-solve doesn't kill a solve whose
	// result is about to land in the cache.
	sctx := obs.Graft(s.baseCtx, ctx)
	u := s.admit(ctx, items, start, func(u *unit) { s.runUnit(sctx, u, items, out) })[0]
	switch {
	case u.shed:
		s.writeShed(w, u)
	case !s.await(u):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	case out[0].Error != "":
		httpError(w, out[0].Status, out[0].Error)
	default:
		writeJSON(w, out[0].Result)
	}
}

// writeShed answers a single solve its lane refused: 429 + Retry-After,
// instead of queueing a cache hit behind multi-second exact solves.
func (s *Server) writeShed(w http.ResponseWriter, u *unit) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	httpError(w, http.StatusTooManyRequests, u.lane+" lane saturated")
}

// submitJob admits an async solve as a job and answers 202 with its ID
// without waiting; a shed job is never registered.
func (s *Server) submitJob(w http.ResponseWriter, ctx context.Context, items []reqItem, start time.Time) {
	jctx, jcancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:      "job-" + s.jobPrefix + "-" + strconv.FormatUint(s.jobSeq.Add(1), 10),
		traceID: obs.TraceIDFrom(ctx),
		status:  "queued",
		// The job context cancels with the job (DELETE, shutdown grace)
		// but carries the submitting request's trace, so the lane
		// worker's solve spans land on it after the 202 returns.
		ctx:    obs.Graft(jctx, ctx),
		cancel: jcancel,
		done:   make(chan struct{}),
	}
	if u := s.admit(ctx, items, start, func(u *unit) { s.runJob(j, u, items) })[0]; u.shed {
		jcancel() // release the baseCtx child
		s.m.jobsShed.Add(1)
		s.writeShed(w, u)
		return
	}
	s.m.jobsSubmitted.Add(1)
	s.registerJob(j)
	s.log.LogAttrs(ctx, slog.LevelInfo, "job queued",
		slog.String("job", j.id), slog.String("trace", j.traceID))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.snapshot())
}

// runJob is an async job's lane task: the unit under the job's own
// context, feeding its live lower-bound gauge and search snapshot, then
// the job's terminal status.
func (s *Server) runJob(j *job, u *unit, items []reqItem) {
	if !j.startRunning() {
		// Canceled while queued; requestCancel already finalized.
		s.m.jobsCanceled.Add(1)
		return
	}
	u.onLower = j.lower.Store
	u.onSearch = func(sn obs.SearchSnapshot) { j.search.Store(&sn) }
	out := make([]BatchItem, 1)
	s.runUnit(j.ctx, u, items, out)
	j.mu.Lock()
	wasCanceled := j.canceled
	j.mu.Unlock()
	switch {
	case wasCanceled:
		s.m.jobsCanceled.Add(1)
	case out[0].Error != "":
		s.m.jobsFailed.Add(1)
	default:
		s.m.jobsDone.Add(1)
	}
	if out[0].Error != "" {
		j.set("error", nil, out[0].Error)
		s.log.LogAttrs(j.ctx, slog.LevelWarn, "job failed",
			slog.String("job", j.id), slog.String("trace", j.traceID),
			slog.String("err", out[0].Error))
		return
	}
	j.set("done", out[0].Result, "")
	s.log.LogAttrs(j.ctx, slog.LevelInfo, "job finished",
		slog.String("job", j.id), slog.String("trace", j.traceID),
		slog.String("status", j.snapshot().Status))
}

func (s *Server) registerJob(j *job) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobOrder) > keepJobs {
		// Drop the oldest finished job; stop if the oldest is still live
		// (it must stay pollable).
		old := s.jobs[s.jobOrder[0]]
		if st := old.snapshot().Status; !terminal(st) {
			break
		}
		delete(s.jobs, s.jobOrder[0])
		s.jobOrder = s.jobOrder[1:]
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	obs.StartRequest(w, r, nil) // echo the trace header; polls aren't recorded
	s.jobMu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.jobMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, j.snapshot())
}

// handleCancelJob is DELETE /solve/{id}: cancel a queued or running
// async job through the solvers' cooperative cancellation layer and
// return the job with the partial certified interval harvested at
// cancellation (the engines hand back their frontier lower bound and
// best incumbent instead of wasting the work done so far).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	obs.StartRequest(w, r, nil)
	s.jobMu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.jobMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.requestCancel()
	// Wait (bounded) for the worker to harvest the partial certificate;
	// the engines notice cancellation within a few thousand expansions.
	select {
	case <-j.done:
	case <-time.After(5 * time.Second):
	case <-r.Context().Done():
	}
	writeJSON(w, j.snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// The header lets the cluster prober tell a *draining* node
		// (alive, handing off, will leave gracefully) from a *dead* one
		// (transport failure / lease expiry) without parsing the body.
		w.Header().Set("X-Rbserve-Draining", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]bool{"ok": false, "draining": true})
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// retryAfterSeconds estimates how long the current lane backlog is
// worth: each unit queued on the heavy lane is worth roughly a default
// budget, while the fast lane drains in fastLaneBudget-sized slices.
// The estimate is the max of the two — a shed request retries when the
// lane it would land in has drained, not when the other one has.
// Clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	heavy := float64(s.lanes.heavy.depth()+1) * s.cfg.DefaultDeadline.Seconds() /
		float64(s.cfg.HeavyLaneWorkers)
	fast := float64(s.lanes.fast.depth()) * fastLaneBudget.Seconds() /
		float64(s.cfg.FastLaneWorkers)
	backlog := heavy
	if fast > backlog {
		backlog = fast
	}
	secs := int(backlog + 0.999)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// ExportCache snapshots this node's solution cache in wire form — the
// drain-handoff payload the cluster agent pushes to each key's next
// owner.
func (s *Server) ExportCache() []instcache.Entry {
	return s.cache.Export()
}

// handleCacheImport is POST /cache/import: merge cache entries pushed
// by the cluster (a draining peer's handoff routed through the proxy,
// or a replication of a freshly proven optimum). Merging is monotone —
// intervals only tighten, optima are authoritative — so imports are
// accepted even while draining: they simply ride along in this node's
// own handoff.
func (s *Server) handleCacheImport(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	var payload struct {
		Entries []instcache.Entry `json:"entries"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
		httpError(w, http.StatusBadRequest, "bad import body: "+err.Error())
		return
	}
	writeJSON(w, map[string]int{"imported": s.cache.Import(payload.Entries)})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	var drainingGauge uint64
	if s.draining.Load() {
		drainingGauge = 1
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, kv := range []struct {
		name string
		v    uint64
	}{
		{"rbserve_requests_total", s.m.requests.Load()},
		{"rbserve_solves_total", s.m.solves.Load()},
		{"rbserve_solve_errors_total", s.m.solveErrors.Load()},
		{"rbserve_cache_hits_total", cs.Hits},
		{"rbserve_cache_misses_total", cs.Misses},
		{"rbserve_cache_evictions_total", cs.Evictions},
		{"rbserve_cache_entries", uint64(cs.Entries)},
		{"rbserve_singleflight_shared_total", cs.SharedFlights},
		{"rbserve_interval_entries", uint64(cs.IntervalEntries)},
		{"rbserve_interval_hits_total", cs.IntervalHits},
		{"rbserve_interval_stores_total", cs.IntervalStores},
		{"rbserve_interval_evictions_total", cs.IntervalEvictions},
		{"rbserve_interval_tightened_total", cs.Tightenings},
		{"rbserve_warm_starts_total", cs.WarmStarts},
		{"rbserve_cache_imported_total", cs.Imported},
		{"rbserve_cache_import_rejected_total", cs.ImportRejected},
		{"rbserve_jobs_submitted_total", s.m.jobsSubmitted.Load()},
		{"rbserve_jobs_done_total", s.m.jobsDone.Load()},
		{"rbserve_jobs_failed_total", s.m.jobsFailed.Load()},
		{"rbserve_jobs_shed_total", s.m.jobsShed.Load()},
		{"rbserve_jobs_canceled_total", s.m.jobsCanceled.Load()},
		{"rbserve_batch_requests_total", s.m.batchRequests.Load()},
		{"rbserve_batch_items_total", s.m.batchItems.Load()},
		{"rbserve_batch_dedup_total", s.m.batchDeduped.Load()},
		{"rbserve_batch_shed_total", s.m.batchShed.Load()},
		{"rbserve_lane_shed_total", s.lanes.fast.shed.Load() + s.lanes.heavy.shed.Load()},
		{"rbserve_telemetry_records_total", s.tel.Total()},
		{"rbserve_solves_memlimited_total", s.m.solvesMemLimited.Load()},
		{"rbserve_draining", drainingGauge},
	} {
		fmt.Fprintf(w, "%s %d\n", kv.name, kv.v)
	}
	// Build identity and uptime. The proxy's fleet merge preserves
	// build_info's labels (a sum of constant-1 series per version is the
	// standard fleet-rollout view); uptime sums into cluster seconds.
	fmt.Fprintf(w, "rbserve_build_info{version=%q,go_version=%q} 1\n", s.version, runtime.Version())
	fmt.Fprintf(w, "rbserve_uptime_seconds %s\n",
		strconv.FormatFloat(time.Since(s.start).Seconds(), 'g', -1, 64))
	// Per-lane queued backlog (instantaneous gauge) — the admission
	// signal behind every 429 shed (sync, async and batch work share the
	// two lanes), exported so operators can see which lane is saturating.
	fmt.Fprintf(w, "rbserve_queue_depth{lane=%q} %d\n", laneFast, s.lanes.fast.depth())
	fmt.Fprintf(w, "rbserve_queue_depth{lane=%q} %d\n", laneHeavy, s.lanes.heavy.depth())
	s.reqSeconds.write(w, "rbserve_request_seconds")
	// Per-running-job live certified lower bound (scaled cost units),
	// streamed from the orchestrator mid-flight, so the gauge moves
	// while the job runs. The cluster proxy strips the label and sums across jobs and nodes into
	// cluster_rbserve_job_lower_bound. Snapshot under the lock, write
	// after releasing it: a slow-reading scraper must not block job
	// submission and polling on jobMu.
	type jobGauge struct {
		id     string
		lower  int64
		search *obs.SearchSnapshot
	}
	var gauges []jobGauge
	s.jobMu.Lock()
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		j.mu.Lock()
		running := j.status == "running"
		j.mu.Unlock()
		if running {
			gauges = append(gauges, jobGauge{id: id, lower: j.lower.Load(), search: j.search.Load()})
		}
	}
	s.jobMu.Unlock()
	for _, g := range gauges {
		fmt.Fprintf(w, "rbserve_job_lower_bound{job=%q} %d\n", g.id, g.lower)
		if g.search == nil {
			continue // no snapshot sampled yet
		}
		// Live search-introspection gauges, from the job's latest engine
		// snapshot. The proxy's fleet merge strips the labels and sums
		// into cluster_rbserve_job_*.
		fmt.Fprintf(w, "rbserve_job_expansion_rate{job=%q} %s\n", g.id,
			strconv.FormatFloat(g.search.Rate, 'g', -1, 64))
		fmt.Fprintf(w, "rbserve_job_table_bytes{job=%q} %d\n", g.id, g.search.TableBytes)
		fmt.Fprintf(w, "rbserve_job_frontier_size{job=%q} %d\n", g.id, g.search.FrontierSize)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
