// Package service is the rbserve HTTP layer: a JSON API over the
// anytime orchestrator with a canonical instance cache, singleflight
// deduplication of concurrent identical solves, a worker-pool job queue
// for async requests, per-request deadlines and operational metrics.
//
// Endpoints:
//
//	POST /solve            solve an instance (async=true enqueues a job)
//	GET  /solve/{id}       poll an async job
//	GET  /healthz          liveness probe
//	GET  /metrics          Prometheus-style counters
//	POST /cache/import     merge cache entries pushed by cluster peers
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
	"rbpebble/internal/refine"
	"rbpebble/internal/solve"
)

// Config tunes a Server. Zero values select the defaults.
type Config struct {
	// Workers is the async job worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the async job queue (default 64); beyond it
	// POST /solve with async=true returns 503.
	QueueDepth int
	// CacheSize bounds the solution LRU (default 256 entries).
	CacheSize int
	// DefaultDeadline applies when a request has no deadline_ms
	// (default 2s). MaxDeadline clamps requested deadlines (default 30s).
	DefaultDeadline, MaxDeadline time.Duration
	// SolveWorkers is forwarded to anytime.Options.Workers (parallel
	// expansion inside one solve; default 1, serial).
	SolveWorkers int
	// MaxNodes rejects instances above this size (default 100000). It
	// is enforced before the graph is materialized, so a tiny request
	// body declaring a huge node count cannot allocate.
	MaxNodes int
	// MaxBodyBytes caps the request body (default 64 MiB).
	MaxBodyBytes int64
	// KeepJobs bounds how many finished async jobs stay pollable
	// (default 1024; the oldest finished jobs are dropped beyond it).
	KeepJobs int
	// GracePeriod bounds how long Shutdown waits for in-flight solves
	// before canceling them cooperatively (default 10s). Canceled
	// solves still return certified partial intervals.
	GracePeriod time.Duration
	// MaxBatchItems caps how many instances one POST /solve/batch may
	// carry (default 256).
	MaxBatchItems int
	// CanonWorkers bounds the concurrency of the batch canonicalization
	// pool (default GOMAXPROCS): batch items are decoded once and
	// canonically labeled in parallel before any of them queues for a
	// solve.
	CanonWorkers int
	// FastLaneWorkers/HeavyLaneWorkers size the two scheduling lanes of
	// the batch plane (defaults 4 and 2). The fast lane runs groups a
	// cache probe can serve and groups whose whole budget is below
	// FastLaneBudget; the heavy lane runs everything that may hold a
	// worker for a long exact solve.
	FastLaneWorkers, HeavyLaneWorkers int
	// FastLaneQueue/HeavyLaneQueue bound the per-lane backlogs
	// (defaults 256 and 64); a full lane sheds its items with 429 +
	// Retry-After instead of queueing cheap work behind expensive work.
	FastLaneQueue, HeavyLaneQueue int
	// FastLaneBudget is the largest per-item deadline the fast lane
	// accepts for uncached work (default 150ms): an item that can hold
	// a fast-lane worker for at most this long cannot head-of-line
	// block the cache-served traffic behind it.
	FastLaneBudget time.Duration
	// Replicate, when set, receives every cache entry this node newly
	// produced (proven-optimal values and tightened intervals, in
	// canonical numbering) so the cluster agent can push it to the
	// key's next ring owner — crash safety for the cache. Called from
	// the request path; implementations must not block.
	Replicate func(instcache.Entry)
	// TraceCap bounds the /debug/trace/{id} recorder ring (default 256
	// most recent traces).
	TraceCap int
	// TelemetryCap bounds the /debug/solves telemetry ring (default 512
	// most recent solve records).
	TelemetryCap int
	// TelemetrySink, when non-nil, additionally receives every solve
	// record as one JSON line (rbserve -telemetry-log).
	TelemetrySink io.Writer
	// MaxTableBytes caps each foreground solve's visited-table memory
	// (0 = unlimited): an exact engine that outgrows the budget aborts
	// with a certified partial interval instead of taking the node down.
	// Threaded to anytime.Options.MaxTableBytes.
	MaxTableBytes int64
	// RefinerInterval enables the background refiner at this idle scan
	// cadence (0 = disabled). When enabled the node spends its idle
	// cycles re-solving the widest certified intervals in its cache at
	// the next budget tier, strictly preempted by foreground work.
	RefinerInterval time.Duration
	// RefinerMaxTier caps the budget tier a background refinement may
	// escalate to (default 12: budgets up to ~4s).
	RefinerMaxTier int
	// RefinerTableBytes is the refiner's per-solve table-memory
	// sub-budget (default MaxTableBytes/2 when a node budget is set):
	// background work runs under a tighter governor than foreground so
	// an ambitious refinement cannot pressure live traffic.
	RefinerTableBytes int64
	// RefinerOwns, when set, filters background refinement to keys this
	// node owns on the cluster ring (nil = solo node: refine all).
	RefinerOwns func(key string) bool
	// SearchSink, when non-nil, receives every live engine-introspection
	// snapshot sampled during this node's solves as one JSON line
	// (rbserve -search-log). Lines are written under a server-wide lock
	// so concurrent solves never interleave.
	SearchSink io.Writer
	// Logger receives structured request/job lifecycle logs with trace
	// and job IDs attached (default: discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
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
	if c.KeepJobs <= 0 {
		c.KeepJobs = 1024
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
	if c.CanonWorkers <= 0 {
		c.CanonWorkers = runtime.GOMAXPROCS(0)
	}
	if c.FastLaneWorkers <= 0 {
		c.FastLaneWorkers = 4
	}
	if c.HeavyLaneWorkers <= 0 {
		c.HeavyLaneWorkers = 2
	}
	if c.FastLaneQueue <= 0 {
		c.FastLaneQueue = 256
	}
	if c.HeavyLaneQueue <= 0 {
		c.HeavyLaneQueue = 64
	}
	if c.FastLaneBudget <= 0 {
		c.FastLaneBudget = 150 * time.Millisecond
	}
	if c.RefinerMaxTier <= 0 {
		c.RefinerMaxTier = 12
	}
	if c.RefinerTableBytes <= 0 && c.MaxTableBytes > 0 {
		c.RefinerTableBytes = c.MaxTableBytes / 2
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

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
	// (the job context carries the full trace, so the worker's solve
	// spans land on the submitting request's trace).
	traceID string
	// The request is parsed once at submission; the worker reuses the
	// materialized problem instead of re-decoding the DAG JSON.
	p            solve.Problem
	deadline     time.Duration
	includeTrace bool

	// ctx is canceled by DELETE /solve/{id} (and by server shutdown once
	// the grace period expires); the solver layer turns the cancellation
	// into a certified partial interval instead of a wasted solve.
	ctx    context.Context
	cancel context.CancelFunc

	// lower is the live certified scaled lower bound of the running
	// solve, streamed from the orchestrator's progress snapshots (the
	// async engine certifies its global f-min mid-flight, so this moves
	// even under SolveWorkers > 1). Exposed while the job runs as the
	// rbserve_job_lower_bound gauge.
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

// startRunning atomically claims a queued job for a worker. It returns
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
// the spot (the worker will skip it), a running one has its context
// canceled — the solve layer harvests a certified partial interval and
// the worker finalizes with it.
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
	requests, solves, solveErrors                                   atomic.Uint64
	jobsSubmitted, jobsDone, jobsFailed, jobsRejected, jobsCanceled atomic.Uint64
	jobsShed                                                        atomic.Uint64
	batchRequests, batchItems, batchDeduped, batchShed              atomic.Uint64
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
	queue chan *job
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

	// known remembers the parsed problem and canonical permutation
	// behind each cache key this node has served: cache keys are
	// digests and cannot be decoded back into instances, so the
	// background refiner can only re-solve keys recorded here. Bounded
	// FIFO (2x the cache size) — a forgotten key is simply skipped.
	knownMu    sync.Mutex
	known      map[string]keyedProblem
	knownOrder []string

	// refiner is the background interval refiner (nil unless
	// Config.RefinerInterval > 0). fgActive counts live foreground
	// solves — the refiner's admission gate and preemption trigger.
	refiner  *refine.Refiner
	fgActive atomic.Int64

	// interest tracks, per cache key, how many live requests care about
	// the key's in-flight solve and how many of them have canceled. The
	// flight is canceled only when EVERY interested request has — one
	// job's DELETE must not kill a solve that concurrent identical
	// requests are still waiting on.
	interestMu sync.Mutex
	interest   map[string]*keyInterest

	m metrics

	// recorder retains recent traces for GET /debug/trace/{id}; tel is
	// the per-solve telemetry ring behind GET /debug/solves — the
	// feature store the learned portfolio scheduler consumes.
	recorder *obs.Recorder
	tel      *obs.SolveLog
	log      *slog.Logger

	// solveFn is the underlying solver, swappable in tests (e.g. to
	// gate concurrency deterministically).
	solveFn func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error)

	// start stamps process start for rbserve_uptime_seconds; version is
	// the main module version for rbserve_build_info.
	start   time.Time
	version string

	// searchMu serializes SearchSink writes so snapshot lines from
	// concurrent solves never interleave.
	searchMu sync.Mutex

	// baseCtx parents every solve; baseCancel fires when a graceful
	// shutdown exhausts its grace period, turning the surviving
	// in-flight solves into certified partial intervals.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining atomic.Bool
	closed   chan struct{}
	once     sync.Once
}

// keyedProblem is one entry of the key -> problem registry (see
// Server.known).
type keyedProblem struct {
	p    solve.Problem
	perm []dag.NodeID
}

// keyInterest is the per-key cancellation vote state (see
// Server.interest).
type keyInterest struct {
	active       int // live requests for this key
	votes        int // of those, how many have canceled
	cancelFlight context.CancelFunc
}

// New returns a started Server (its worker pool runs until Close).
func New(cfg Config) *Server {
	var idSeed [6]byte
	rand.Read(idSeed[:])
	s := &Server{
		cfg:       cfg.withDefaults(),
		jobs:      make(map[string]*job),
		jobPrefix: hex.EncodeToString(idSeed[:]),
		interest:  make(map[string]*keyInterest),
		known:     make(map[string]keyedProblem),
		solveFn:   anytime.Solve,
		closed:    make(chan struct{}),
		start:     time.Now(),
		version:   mainVersion(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.recorder = obs.NewRecorder(s.cfg.TraceCap)
	s.tel = obs.NewSolveLog(s.cfg.TelemetryCap, s.cfg.TelemetrySink)
	s.log = s.cfg.Logger
	s.cache = instcache.New(s.cfg.CacheSize)
	s.queue = make(chan *job, s.cfg.QueueDepth)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
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
	s.mux.HandleFunc("GET /debug/refiner", s.handleDebugRefiner)
	if s.cfg.RefinerInterval > 0 {
		s.refiner = refine.New(refine.Config{
			Export:     s.cache.Export,
			Solve:      s.refineKey,
			Owns:       s.cfg.RefinerOwns,
			Resolvable: s.knowsKey,
			Busy:       s.refinerBusy,
			Interval:   s.cfg.RefinerInterval,
			MaxTier:    s.cfg.RefinerMaxTier,
			Logf: func(format string, args ...any) {
				s.log.Info(fmt.Sprintf(format, args...))
			},
		})
	}
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
// called on its own. The background refiner is stopped first — its
// in-flight refinement is canceled cooperatively and lands its
// certified partial interval in the cache before this returns, so the
// drain handoff exports every tightening instead of racing the last
// one.
func (s *Server) Drain() {
	s.draining.Store(true)
	if s.refiner != nil {
		s.refiner.Stop()
	}
}

// Draining reports whether Drain (or Shutdown) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the worker pool after its in-flight jobs complete. Jobs
// still queued stay in "queued" state; the queue channel is never
// closed, so submissions racing a shutdown get a 503 rather than a
// panic.
func (s *Server) Close() {
	if s.refiner != nil {
		s.refiner.Stop()
	}
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

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case j := <-s.queue:
			if !j.startRunning() {
				// Canceled while queued; requestCancel already finalized.
				s.m.jobsCanceled.Add(1)
				continue
			}
			resp, err := s.runSolve(j.ctx, j.p, j.deadline, j.includeTrace, j.lower.Store,
				func(sn obs.SearchSnapshot) { j.search.Store(&sn) })
			j.mu.Lock()
			wasCanceled := j.canceled
			j.mu.Unlock()
			if err != nil {
				if wasCanceled {
					s.m.jobsCanceled.Add(1)
				} else {
					s.m.jobsFailed.Add(1)
				}
				j.set("error", nil, err.Error())
				s.log.LogAttrs(j.ctx, slog.LevelWarn, "job failed",
					slog.String("job", j.id), slog.String("trace", j.traceID),
					slog.String("err", err.Error()))
				continue
			}
			if wasCanceled {
				s.m.jobsCanceled.Add(1)
			} else {
				s.m.jobsDone.Add(1)
			}
			j.set("done", &resp, "")
			s.log.LogAttrs(j.ctx, slog.LevelInfo, "job finished",
				slog.String("job", j.id), slog.String("trace", j.traceID),
				slog.String("status", j.snapshot().Status))
		}
	}
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
	var model pebble.Model
	switch req.Model {
	case "", "oneshot":
		model = pebble.NewModel(pebble.Oneshot)
	case "base":
		model = pebble.NewModel(pebble.Base)
	case "nodel":
		model = pebble.NewModel(pebble.NoDel)
	case "compcost":
		eps := req.EpsDenom
		if eps == 0 {
			eps = 100
		}
		model = pebble.Model{Kind: pebble.CompCost, EpsDenom: eps}
	default:
		return solve.Problem{}, fmt.Errorf("unknown model %q", req.Model)
	}
	r := req.R
	if r == 0 {
		r = pebble.MinFeasibleR(g)
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

// registerInterest records that a request governed by ctx cares about
// key's in-flight solve. The returned release must be deferred. When
// EVERY live interested request's ctx has been canceled, the flight
// context (installed by the leader via flightContext) is canceled —
// so one job's DELETE stops a solve only when nobody else is waiting
// on it.
func (s *Server) registerInterest(key string, ctx context.Context) (release func()) {
	s.interestMu.Lock()
	in := s.interest[key]
	if in == nil {
		in = &keyInterest{}
		s.interest[key] = in
	}
	in.active++
	s.interestMu.Unlock()

	stop := context.AfterFunc(ctx, func() {
		s.interestMu.Lock()
		in.votes++
		cancel := in.cancelFlight
		fire := in.votes >= in.active && cancel != nil
		s.interestMu.Unlock()
		if fire {
			cancel()
		}
	})
	return func() {
		voted := !stop() // AfterFunc already ran: retract its vote with its interest
		s.interestMu.Lock()
		in.active--
		if voted {
			in.votes--
		}
		// A departure can leave only canceled requests behind (e.g. a
		// waiter times out after the leader job was DELETEd): the flight
		// is then fully abandoned and must stop too.
		cancel := in.cancelFlight
		fire := in.active > 0 && in.votes >= in.active && cancel != nil
		if in.active == 0 {
			delete(s.interest, key)
		}
		s.interestMu.Unlock()
		if fire {
			cancel()
		}
	}
}

// flightContext returns the cancelable context the flight leader runs
// the shared solve under: rooted in baseCtx (NOT any single request's
// context — concurrent identical requests share the solve) and
// canceled by the interest registry once every interested request has
// canceled. The caller must defer the returned cancel (after
// flightDone) so the baseCtx child is always released.
func (s *Server) flightContext(key string) (context.Context, context.CancelFunc) {
	fctx, cancel := context.WithCancel(s.baseCtx)
	s.interestMu.Lock()
	in := s.interest[key]
	fire := false
	if in != nil {
		in.cancelFlight = cancel
		fire = in.votes >= in.active // everyone canceled before the solve even started
	}
	s.interestMu.Unlock()
	if fire {
		cancel()
	}
	return fctx, cancel
}

// flightDone detaches the flight cancel func from the interest entry
// once the solve has returned (late votes must not cancel a context
// that a future flight for the same key will replace).
func (s *Server) flightDone(key string) {
	s.interestMu.Lock()
	if in := s.interest[key]; in != nil {
		in.cancelFlight = nil
	}
	s.interestMu.Unlock()
}

// runSolve is the shared sync/async solve path for an already-parsed
// request: canonical key, cache and singleflight, then the anytime
// orchestrator — warm-started from the cached certified interval when
// one exists, so repeated hard instances tighten across requests. ctx
// governs this request's own wait and its cancellation vote (job
// cancellation, shutdown grace expiry); the shared solve itself stops
// only when every request interested in it has canceled, and a
// canceled solve still returns a certified partial interval. onLower,
// when non-nil, receives every certified scaled lower-bound improvement
// streamed by the orchestrator while the solve runs (async jobs feed it
// into their live metrics gauge); it fires only when this request leads
// the solve, not when it latches onto another request's flight. onSearch
// likewise receives the orchestrator's live engine-introspection
// snapshots when this request leads the solve (async jobs retain the
// latest one for GET /debug/jobs/{id}/search).
func (s *Server) runSolve(ctx context.Context, p solve.Problem, deadline time.Duration, includeTrace bool, onLower func(int64), onSearch func(obs.SearchSnapshot)) (SolveResponse, error) {
	start := time.Now()
	_, csp := obs.StartSpan(ctx, "canonicalize")
	inst := instcache.Instance{G: p.G, Model: p.Model, R: p.R, Convention: p.Convention}
	key, perm := inst.Key()
	csp.End()
	val, hit, shared, warmed, err := s.solveKeyed(ctx, p, key, perm, deadline, onLower, onSearch)
	if err != nil {
		s.m.solveErrors.Add(1)
		return SolveResponse{}, err
	}
	resp, err := s.buildResponse(ctx, p, val, perm, includeTrace, hit, shared, warmed, start)
	s.reqSeconds.observe(time.Since(start))
	return resp, err
}

// modelName maps a materialized model back to its wire name for the
// telemetry record (the inverse of BuildProblem's model switch).
func modelName(m pebble.Model) string {
	switch m.Kind {
	case pebble.Base:
		return "base"
	case pebble.NoDel:
		return "nodel"
	case pebble.CompCost:
		return "compcost"
	default:
		return "oneshot"
	}
}

// recordProbeHit appends the telemetry record for a request served
// entirely by a pre-dispatch cache probe (solveKeyed records every
// other disposition itself).
func (s *Server) recordProbeHit(ctx context.Context, p solve.Problem, val instcache.Value, deadline time.Duration, start time.Time) {
	s.tel.Append(obs.SolveRecord{
		TraceID:     obs.TraceIDFrom(ctx),
		Start:       start,
		Features:    obs.ComputeFeatures(p.G, p.R),
		Model:       modelName(p.Model),
		Engine:      val.Source,
		Workers:     s.cfg.SolveWorkers,
		BudgetMS:    deadline.Milliseconds(),
		Tier:        instcache.TierForBudget(deadline),
		Disposition: "hit",
		LowerScaled: val.LowerScaled,
		UpperScaled: val.UpperScaled,
		Optimal:     val.Optimal,
		WallMS:      float64(time.Since(start).Microseconds()) / 1000,
	})
}

// searchLogLine is one -search-log JSONL row: a live engine snapshot
// stamped with its solve's trace ID for correlation against the
// telemetry log and /debug/trace/{id}.
type searchLogLine struct {
	Time     time.Time          `json:"time"`
	TraceID  string             `json:"trace_id,omitempty"`
	Snapshot obs.SearchSnapshot `json:"snapshot"`
}

// solveKeyed is runSolve after the canonical key is known: interest
// registration, the cache/singleflight Do, and replication of freshly
// produced entries. The batch plane computes keys up front (in its
// amortized canonicalization pool) and calls this directly, once per
// in-batch canonical class.
func (s *Server) solveKeyed(ctx context.Context, p solve.Problem, key string, perm []dag.NodeID, deadline time.Duration, onLower func(int64), onSearch func(obs.SearchSnapshot)) (instcache.Value, bool, bool, bool, error) {
	start := time.Now()
	tier := instcache.TierForBudget(deadline)
	// Foreground work preempts background refinement the moment it
	// arrives: the refiner's in-flight solve is canceled cooperatively
	// (it still certifies its partial interval) and its admission gate
	// sees fgActive > 0 until this request's solve is done.
	s.rememberKey(key, p, perm)
	s.fgActive.Add(1)
	defer s.fgActive.Add(-1)
	if s.refiner != nil {
		s.refiner.Preempt()
	}
	release := s.registerInterest(key, ctx)
	defer release()
	// The wait on another request's in-flight solve is bounded by this
	// request's own deadline (plus grace for the orchestrator's
	// non-interruptible heuristic phase) and by its cancellation —
	// joining a long-budget flight must not stall a short-deadline
	// client past its budget, nor pin a canceled job's worker.
	waitCtx, cancelWait := context.WithTimeout(ctx, deadline+2*time.Second)
	defer cancelWait()
	// The cache span covers the whole Do: a hit ends it in
	// microseconds, a latched waiter spends it inside the nested
	// cache-wait span, and a flight leader nests the engine spans
	// under it.
	dctx, dsp := obs.StartSpan(waitCtx, "cache")
	// run captures what the flight actually did when THIS request led
	// it, for the telemetry record (waiters latch on and see none of
	// it). Written inside fn, read after Do returns — fn runs
	// synchronously on this goroutine when it runs at all.
	var run struct {
		res      anytime.Result
		canceled bool
		ran      bool
	}
	val, hit, shared, warmed, err := s.cache.Do(dctx, key, tier, func(warm *instcache.Value) (instcache.Value, error) {
		s.m.solves.Add(1)
		fctx, cancelFlight := s.flightContext(key)
		defer cancelFlight()
		defer s.flightDone(key)
		// The flight context is rooted at baseCtx (concurrent identical
		// requests share one solve, so no single request's cancellation
		// may govern it); grafting transplants the leader's trace onto
		// it so the engine spans land under this request's cache span.
		fctx = obs.Graft(fctx, dctx)
		opts := anytime.Options{
			Budget:        deadline,
			Workers:       s.cfg.SolveWorkers,
			MaxTableBytes: s.cfg.MaxTableBytes,
		}
		if onLower != nil {
			opts.OnProgress = func(sn anytime.Snapshot) {
				if sn.LowerScaled > 0 {
					onLower(sn.LowerScaled)
				}
			}
		}
		if onSearch != nil || s.cfg.SearchSink != nil {
			// Live engine introspection fans out to the caller (async
			// jobs retain the latest snapshot) and to the -search-log
			// JSONL sink. Like onLower, only the flight leader samples —
			// latched waiters see nothing, which is exactly right: there
			// is one search, and one stream describing it.
			traceID := obs.TraceIDFrom(dctx)
			opts.OnSearch = func(sn obs.SearchSnapshot) {
				if onSearch != nil {
					onSearch(sn)
				}
				if s.cfg.SearchSink != nil {
					line := searchLogLine{Time: time.Now(), TraceID: traceID, Snapshot: sn}
					if b, jerr := json.Marshal(line); jerr == nil {
						s.searchMu.Lock()
						s.cfg.SearchSink.Write(append(b, '\n'))
						s.searchMu.Unlock()
					}
				}
			}
		}
		if warm != nil {
			// Resume refinement from the cached certified interval: the
			// incumbent trace (translated back to this requester's node
			// IDs) seeds the engines' bounds, the cached lower bound
			// skips already-completed work.
			opts.Warm = &anytime.WarmStart{
				Moves:       instcache.FromCanonical(warm.Moves, perm),
				LowerScaled: warm.LowerScaled,
				Source:      "cache:" + warm.Source,
			}
		}
		res, err := s.solveFn(fctx, p, opts)
		if err != nil {
			return instcache.Value{}, err
		}
		if res.MemoryLimited {
			s.m.solvesMemLimited.Add(1)
		}
		run.res, run.canceled, run.ran = res, fctx.Err() != nil, true
		// A solve canceled well short of its budget (DELETE, shutdown
		// grace) only earned a lower tier: crediting the full requested
		// tier would let its weak interval be served to smaller-budget
		// requests that could genuinely tighten it. The half-budget
		// threshold keeps normal deadline-limited solves (elapsed ≈
		// budget, possibly a hair under) at their requested tier.
		effTier := tier
		if res.Elapsed > 0 && res.Elapsed*2 < deadline {
			if t := instcache.TierForBudget(res.Elapsed); t < effTier {
				effTier = t
			}
		}
		return instcache.Value{
			Moves:       instcache.ToCanonical(res.Solution.Trace.Moves, perm),
			UpperScaled: res.UpperScaled,
			LowerScaled: res.LowerScaled,
			Optimal:     res.Optimal,
			Source:      res.Source,
			Tier:        effTier,
		}, nil
	})
	dsp.End()
	// Every completion — hit, warm, shared, cold, canceled, failed —
	// appends one telemetry record: the feature store the portfolio
	// scheduler trains on must see the failures and cancellations too.
	rec := obs.SolveRecord{
		TraceID:     obs.TraceIDFrom(ctx),
		Start:       start,
		Features:    obs.ComputeFeatures(p.G, p.R),
		Model:       modelName(p.Model),
		Engine:      val.Source,
		Workers:     s.cfg.SolveWorkers,
		BudgetMS:    deadline.Milliseconds(),
		Tier:        tier,
		Disposition: "cold",
		Canceled:    run.canceled,
		LowerScaled: val.LowerScaled,
		UpperScaled: val.UpperScaled,
		Optimal:     val.Optimal,
		WallMS:      float64(time.Since(start).Microseconds()) / 1000,
	}
	switch {
	case hit:
		rec.Disposition = "hit"
	case shared:
		rec.Disposition = "shared"
	case warmed:
		rec.Disposition = "warm"
	}
	if run.ran {
		rec.Expanded = uint64(run.res.Expanded)
		rec.Visits = uint64(run.res.Visits)
		rec.TableBytes = uint64(run.res.TableBytes)
		rec.PeakFrontier = run.res.PeakFrontier
		rec.PeakRate = run.res.PeakRate
	}
	if err != nil {
		rec.Err = err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			rec.Canceled = true
		}
		s.tel.Append(rec)
		return instcache.Value{}, false, false, false, err
	}
	s.tel.Append(rec)
	if !hit && !shared && s.cfg.Replicate != nil {
		// This request's own solve produced (or tightened) the stored
		// entry: push it toward the key's next ring owner so a hard crash
		// of this node doesn't lose it. Only the flight leader replicates
		// — waiters latched onto it would just duplicate the push.
		s.cfg.Replicate(instcache.Entry{Key: key, Tier: val.Tier, Value: val})
	}
	return val, hit, shared, warmed, nil
}

// rememberKey records the problem behind a cache key so the background
// refiner can re-solve it later. Bounded FIFO at twice the cache size:
// keys evicted here simply stop being refinement candidates.
func (s *Server) rememberKey(key string, p solve.Problem, perm []dag.NodeID) {
	s.knownMu.Lock()
	defer s.knownMu.Unlock()
	if _, ok := s.known[key]; ok {
		return
	}
	s.known[key] = keyedProblem{p: p, perm: perm}
	s.knownOrder = append(s.knownOrder, key)
	for len(s.knownOrder) > 2*s.cfg.CacheSize {
		delete(s.known, s.knownOrder[0])
		s.knownOrder = s.knownOrder[1:]
	}
}

// knowsKey reports whether the refiner can materialize key's problem.
func (s *Server) knowsKey(key string) bool {
	s.knownMu.Lock()
	defer s.knownMu.Unlock()
	_, ok := s.known[key]
	return ok
}

func (s *Server) lookupKey(key string) (keyedProblem, bool) {
	s.knownMu.Lock()
	defer s.knownMu.Unlock()
	kp, ok := s.known[key]
	return kp, ok
}

// refinerBusy is the background refiner's admission gate: any live
// foreground solve, queued async job, or lane backlog pauses
// refinement scheduling — background work runs only on genuinely idle
// cycles.
func (s *Server) refinerBusy() bool {
	return s.fgActive.Load() > 0 || len(s.queue) > 0 ||
		s.lanes.fast.depth() > 0 || s.lanes.heavy.depth() > 0
}

// errUnknownKey marks a refinement request for a key whose problem this
// node never parsed (e.g. the entry arrived via replication); the
// refiner backs the key off and moves on.
var errUnknownKey = errors.New("service: no problem registered for cache key")

// refineKey is the background refiner's solve path: re-solve key at
// the given budget tier through the same Cache.Do pipeline foreground
// requests use (warm start from the stored interval, effective-tier
// demotion, replication of the tightened entry), under the refiner's
// tighter table-memory sub-budget. ctx is the refiner's run context —
// canceled on preemption or drain, which the orchestrator turns into
// a certified partial interval that still lands in the cache. Returns
// the scaled gap of the stored interval after the attempt.
func (s *Server) refineKey(ctx context.Context, key string, tier int) (int64, error) {
	kp, ok := s.lookupKey(key)
	if !ok {
		return 0, errUnknownKey
	}
	// The tier's nominal budget: TierForBudget(2^(t-1) ms) == t, the
	// smallest budget that earns the tier.
	deadline := time.Duration(1<<(tier-1)) * time.Millisecond
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	start := time.Now()
	var run struct {
		res anytime.Result
		ran bool
	}
	val, hit, shared, _, err := s.cache.Do(ctx, key, tier, func(warm *instcache.Value) (instcache.Value, error) {
		s.m.solves.Add(1)
		opts := anytime.Options{
			Budget:        deadline,
			Workers:       s.cfg.SolveWorkers,
			MaxTableBytes: s.cfg.RefinerTableBytes,
		}
		if warm != nil {
			opts.Warm = &anytime.WarmStart{
				Moves:       instcache.FromCanonical(warm.Moves, kp.perm),
				LowerScaled: warm.LowerScaled,
				Source:      "cache:" + warm.Source,
			}
		}
		res, err := s.solveFn(ctx, kp.p, opts)
		if err != nil {
			return instcache.Value{}, err
		}
		if res.MemoryLimited {
			s.m.solvesMemLimited.Add(1)
		}
		run.res, run.ran = res, true
		// A preempted refinement earned only the tier its elapsed time
		// paid for (same demotion rule as foreground cancellations).
		effTier := tier
		if res.Elapsed > 0 && res.Elapsed*2 < deadline {
			if t := instcache.TierForBudget(res.Elapsed); t < effTier {
				effTier = t
			}
		}
		return instcache.Value{
			Moves:       instcache.ToCanonical(res.Solution.Trace.Moves, kp.perm),
			UpperScaled: res.UpperScaled,
			LowerScaled: res.LowerScaled,
			Optimal:     res.Optimal,
			Source:      res.Source,
			Tier:        effTier,
		}, nil
	})
	rec := obs.SolveRecord{
		TraceID:     obs.TraceIDFrom(ctx),
		Start:       start,
		Features:    obs.ComputeFeatures(kp.p.G, kp.p.R),
		Model:       modelName(kp.p.Model),
		Engine:      val.Source,
		Workers:     s.cfg.SolveWorkers,
		BudgetMS:    deadline.Milliseconds(),
		Tier:        tier,
		Disposition: "refine",
		Canceled:    ctx.Err() != nil,
		LowerScaled: val.LowerScaled,
		UpperScaled: val.UpperScaled,
		Optimal:     val.Optimal,
		WallMS:      float64(time.Since(start).Microseconds()) / 1000,
	}
	if run.ran {
		rec.Expanded = uint64(run.res.Expanded)
		rec.Visits = uint64(run.res.Visits)
		rec.TableBytes = uint64(run.res.TableBytes)
		rec.PeakFrontier = run.res.PeakFrontier
		rec.PeakRate = run.res.PeakRate
	}
	if err != nil {
		rec.Err = err.Error()
		s.tel.Append(rec)
		return 0, err
	}
	s.tel.Append(rec)
	if !hit && !shared && s.cfg.Replicate != nil {
		// Every background tightening is replicated exactly like a
		// foreground result: the point of refining is to make the
		// fleet's cached interval narrower, crash or no crash.
		s.cfg.Replicate(instcache.Entry{Key: key, Tier: val.Tier, Value: val})
	}
	if val.Optimal {
		return 0, nil
	}
	return val.UpperScaled - val.LowerScaled, nil
}

// RefinerStatus reports the background refiner's live state; ok is
// false when the refiner is disabled.
func (s *Server) RefinerStatus() (refine.Status, bool) {
	if s.refiner == nil {
		return refine.Status{}, false
	}
	return s.refiner.Status(), true
}

// handleDebugRefiner is GET /debug/refiner: the refiner's admission
// state, current candidates and counters.
func (s *Server) handleDebugRefiner(w http.ResponseWriter, r *http.Request) {
	st, ok := s.RefinerStatus()
	if !ok {
		writeJSON(w, refine.Status{Enabled: false})
		return
	}
	writeJSON(w, st)
}

// buildResponse translates a canonical cache value back into one
// requester's node numbering, replay-verifies the trace on the
// requester's own graph, and shapes the wire response. In a batch,
// every member of a canonical-class group goes through its own
// buildResponse (k isomorphic items = 1 solve, k translations), so a
// translation failure poisons only its own item.
func (s *Server) buildResponse(ctx context.Context, p solve.Problem, val instcache.Value, perm []dag.NodeID, includeTrace bool, hit, shared, warmed bool, start time.Time) (SolveResponse, error) {
	_, tsp := obs.StartSpan(ctx, "translate")
	defer tsp.End()
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
		Cached:    hit,
		Shared:    shared,
		Warmed:    warmed,
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
	// The trace starts (or continues, when the proxy minted the ID)
	// before any rejection path, so even a draining 503 or a shed 429
	// carries the X-Rbpebble-Trace correlation header.
	ctx, _ := obs.StartRequest(w, r, s.recorder)
	if s.draining.Load() {
		// The header lets the routing proxy tell "this node is going
		// away, fail over" apart from per-request 503s (queue full,
		// singleflight wait timeout) that a healthy node also emits.
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
	// Parse once; async jobs carry the materialized problem so the
	// worker never re-decodes the DAG JSON.
	p, deadline, err := s.parseRequest(req)
	if err != nil {
		if req.Async {
			httpError(w, http.StatusBadRequest, err.Error())
		} else {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	if req.Async {
		jctx, jcancel := context.WithCancel(s.baseCtx)
		j := &job{
			id:           "job-" + s.jobPrefix + "-" + strconv.FormatUint(s.jobSeq.Add(1), 10),
			traceID:      obs.TraceIDFrom(ctx),
			p:            p,
			deadline:     deadline,
			includeTrace: req.IncludeTrace,
			status:       "queued",
			// The job context cancels with the job (DELETE, shutdown
			// grace) but carries the submitting request's trace, so the
			// worker's solve spans land on it after the 202 returns.
			ctx:    obs.Graft(jctx, ctx),
			cancel: jcancel,
			done:   make(chan struct{}),
		}
		select {
		case <-s.closed:
			jcancel() // rejected: release the baseCtx child
			httpError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		default:
		}
		select {
		case s.queue <- j:
		default:
			// Queue-depth-aware load shedding: the worker pool is
			// saturated a full queue deep, so tell the client how long the
			// backlog is worth instead of a bare refusal — a retry after
			// that long lands in a drained queue instead of re-shedding.
			jcancel() // rejected: release the baseCtx child
			s.m.jobsShed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			httpError(w, http.StatusTooManyRequests, "job queue saturated")
			return
		}
		s.m.jobsSubmitted.Add(1)
		s.registerJob(j)
		s.log.LogAttrs(ctx, slog.LevelInfo, "job queued",
			slog.String("job", j.id), slog.String("trace", j.traceID))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(j.snapshot())
		return
	}
	s.syncSolve(w, ctx, p, deadline, req.IncludeTrace)
}

// syncSolve serves a single synchronous solve through the two-lane
// scheduler: a pre-dispatch cache probe (plus the fast-lane budget
// threshold) classifies the request exactly like a batch group, the
// lane-queue wait is a span on the trace, and a saturated lane sheds
// with 429 + Retry-After instead of queueing a cache hit behind
// multi-second exact solves.
func (s *Server) syncSolve(w http.ResponseWriter, ctx context.Context, p solve.Problem, deadline time.Duration, includeTrace bool) {
	start := time.Now()
	_, csp := obs.StartSpan(ctx, "canonicalize")
	inst := instcache.Instance{G: p.G, Model: p.Model, R: p.R, Convention: p.Convention}
	key, perm := inst.Key()
	csp.End()

	_, psp := obs.StartSpan(ctx, "cache-probe")
	tier := instcache.TierForBudget(deadline)
	probedVal, probeHit := s.cache.Probe(key, tier)
	psp.SetAttr("hit", strconv.FormatBool(probeHit))
	psp.End()
	laneName := laneHeavy
	if probeHit || deadline <= s.cfg.FastLaneBudget {
		laneName = laneFast
	}

	_, qsp := obs.StartSpan(ctx, "lane-queue")
	qsp.SetAttr("lane", laneName)
	var (
		resp SolveResponse
		err  error
	)
	done := make(chan struct{})
	var started atomic.Bool
	task := func() {
		started.Store(true)
		qsp.End()
		defer close(done)
		if probeHit {
			resp, err = s.buildResponse(ctx, p, probedVal, perm, includeTrace, true, false, false, start)
			s.reqSeconds.observe(time.Since(start))
			s.recordProbeHit(ctx, p, probedVal, deadline, start)
			return
		}
		// The solve runs under baseCtx with the request's trace grafted
		// on: a client that disconnects mid-solve doesn't kill a solve
		// whose result is about to land in the cache.
		sctx := obs.Graft(s.baseCtx, ctx)
		var val instcache.Value
		var hit, shared, warmed bool
		val, hit, shared, warmed, err = s.solveKeyed(sctx, p, key, perm, deadline, nil, nil)
		if err != nil {
			s.m.solveErrors.Add(1)
			return
		}
		resp, err = s.buildResponse(ctx, p, val, perm, includeTrace, hit, shared, warmed, start)
		s.reqSeconds.observe(time.Since(start))
	}
	if !s.lanes.byName(laneName).submit(task) {
		qsp.SetAttr("shed", "true")
		qsp.End()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, laneName+" lane saturated")
		return
	}
	select {
	case <-done:
	case <-s.closed:
		// Lane workers are gone or going. A task that already started
		// still finishes — its partial certified interval must reach the
		// client — but one still queued never runs.
		if started.Load() {
			<-done
		} else {
			qsp.End()
			httpError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			httpError(w, http.StatusServiceUnavailable,
				"an identical solve is in flight and exceeded this request's deadline; retry shortly")
			return
		}
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, resp)
}

func (s *Server) registerJob(j *job) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobOrder) > s.cfg.KeepJobs {
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

// retryAfterSeconds estimates how long the current backlog is worth
// across every pool that can hold a solve: async jobs and the heavy
// batch lane share the multi-second cost class (each queued unit is
// worth roughly a default budget), while the fast lane drains in
// FastLaneBudget-sized slices. The estimate is the max of the two —
// a shed request retries when the pool it would land in has drained,
// not when the other one has. Clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	heavy := float64(len(s.queue)+s.lanes.heavy.depth()+1) * s.cfg.DefaultDeadline.Seconds() /
		float64(s.cfg.Workers+s.cfg.HeavyLaneWorkers)
	fast := float64(s.lanes.fast.depth()) * s.cfg.FastLaneBudget.Seconds() /
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
// drain-handoff payload the cluster agent pushes to ring successors.
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
	var refRuns, refTightened, refPreempted, refGapSum uint64
	if s.refiner != nil {
		refRuns, refTightened, refPreempted, refGapSum = s.refiner.Counters()
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
		{"rbserve_jobs_rejected_total", s.m.jobsRejected.Load()},
		{"rbserve_jobs_shed_total", s.m.jobsShed.Load()},
		{"rbserve_jobs_canceled_total", s.m.jobsCanceled.Load()},
		{"rbserve_batch_requests_total", s.m.batchRequests.Load()},
		{"rbserve_batch_items_total", s.m.batchItems.Load()},
		{"rbserve_batch_dedup_total", s.m.batchDeduped.Load()},
		{"rbserve_batch_shed_total", s.m.batchShed.Load()},
		{"rbserve_lane_shed_total", s.lanes.fast.shed.Load() + s.lanes.heavy.shed.Load()},
		{"rbserve_telemetry_records_total", s.tel.Total()},
		{"rbserve_solves_memlimited_total", s.m.solvesMemLimited.Load()},
		{"rbserve_refiner_runs_total", refRuns},
		{"rbserve_refiner_tightened_total", refTightened},
		{"rbserve_refiner_preempted_total", refPreempted},
		{"rbserve_refiner_gap_sum", refGapSum},
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
	// signal behind 429 shedding, exported so operators can see which
	// lane is saturating. "jobs" is the async-solve queue that predates
	// the two-lane batch scheduler.
	fmt.Fprintf(w, "rbserve_queue_depth{lane=%q} %d\n", laneFast, s.lanes.fast.depth())
	fmt.Fprintf(w, "rbserve_queue_depth{lane=%q} %d\n", laneHeavy, s.lanes.heavy.depth())
	fmt.Fprintf(w, "rbserve_queue_depth{lane=%q} %d\n", "jobs", len(s.queue))
	s.reqSeconds.write(w, "rbserve_request_seconds")
	// Per-running-job live certified lower bound (scaled cost units),
	// streamed from the orchestrator mid-flight — the async engine
	// certifies its global f-min without stop-and-drain, so the gauge
	// moves while the job runs even under SolveWorkers > 1. The cluster
	// proxy strips the label and sums across jobs and nodes into
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
		for _, wk := range g.search.Workers {
			fmt.Fprintf(w, "rbserve_job_mailbox_depth{job=%q,worker=\"%d\"} %d\n", g.id, wk.ID, wk.MailboxDepth)
		}
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
