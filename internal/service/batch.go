package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/dag"
	"rbpebble/internal/instcache"
	"rbpebble/internal/obs"
	"rbpebble/internal/solve"
)

// BatchRequest is the POST /solve/batch body: many instances decoded
// in one request. DeadlineMS and IncludeTrace are batch-wide defaults;
// a per-item deadline_ms / include_trace overrides them for that item.
type BatchRequest struct {
	Items []SolveRequest `json:"items"`
	// DeadlineMS is the default per-item solve budget (same clamping as
	// the single-solve endpoint).
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// IncludeTrace adds the verified move sequence to every item result.
	IncludeTrace bool `json:"include_trace,omitempty"`
}

// BatchItem is one per-instance result, tagged with its position in
// the request so the client (and the routing proxy reassembling
// sub-batches) can match results to inputs without relying on
// transport order.
type BatchItem struct {
	Index int `json:"index"`
	// Lane records which scheduling lane served the item ("fast" for
	// cache-served and sub-budget work, "heavy" for exact solves).
	Lane   string         `json:"lane,omitempty"`
	Error  string         `json:"error,omitempty"`
	Status int            `json:"status,omitempty"` // per-item HTTP-ish status when Error is set
	Result *SolveResponse `json:"result,omitempty"`
}

// BatchSummary trails the item stream with batch-level accounting.
type BatchSummary struct {
	Items     int     `json:"items"`
	OK        int     `json:"ok"`
	Errors    int     `json:"errors"`
	Solves    int     `json:"solves"`  // canonical-class solve groups dispatched
	Deduped   int     `json:"deduped"` // items served by another in-batch item's solve
	Shed      int     `json:"shed"`    // items refused by lane admission control
	ElapsedMS float64 `json:"elapsed_ms"`
}

// BatchResponse is the full response shape (the stream writes it
// incrementally: items in request order, then the summary).
type BatchResponse struct {
	Items   []BatchItem  `json:"items"`
	Summary BatchSummary `json:"summary"`
}

// reqItem carries one requested instance through prepare: the parsed
// problem, its clamped deadline and its canonical key and permutation,
// or the error that rejects it.
type reqItem struct {
	p            solve.Problem
	deadline     time.Duration
	includeTrace bool
	key          string
	perm         []dag.NodeID
	err          error
}

// unit is one canonical-equivalence class of a request on its way to
// and through a lane worker: every member item shares the canonical
// key, so the unit performs exactly one cache/singleflight round trip
// and one trace translation per member. A single POST /solve is a unit
// of one.
type unit struct {
	keyedSolve
	members []int     // item indices, request order
	start   time.Time // request start: every member's latency runs from here
	probed  *instcache.Value
	lane    string
	queued  *obs.Span // lane-queue span, ended when a worker picks the unit up
	// started is claimed by whichever comes first: the lane worker that
	// runs the unit, or an await that gives it up at shutdown.
	started atomic.Bool
	shed    bool // refused by lane admission control; never runs
	dropped bool // given up by await while still queued; never runs
	done    chan struct{}
}

// handleSolveBatch is POST /solve/batch: the amortized request plane.
// The body is decoded once; items are canonicalized concurrently
// through a bounded pool, deduplicated within the batch by canonical
// key, classified onto the fast or heavy lane, and streamed back in
// request order as each item's unit completes.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	s.m.batchRequests.Add(1)
	start := time.Now()
	ctx, _ := obs.StartRequest(w, r, s.recorder)
	if s.draining.Load() {
		w.Header().Set("X-Rbserve-Draining", "1")
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	var req BatchRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Items) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch has %d items, limit %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	s.m.batchItems.Add(uint64(len(req.Items)))

	items := s.prepare(ctx, req.Items, req.DeadlineMS, req.IncludeTrace)
	out := make([]BatchItem, len(items))
	for i, it := range items {
		if it.err != nil {
			out[i] = BatchItem{Index: i, Error: it.err.Error(), Status: http.StatusUnprocessableEntity}
		}
	}
	// The units run under baseCtx (not the HTTP request context): a
	// client that gives up mid-batch doesn't kill a solve whose result
	// is about to land in the cache. The graft keeps the batch request's
	// trace on it.
	sctx := obs.Graft(s.baseCtx, ctx)
	units := s.admit(ctx, items, start, func(u *unit) { s.runUnit(sctx, u, items, out) })
	unitOf := make([]*unit, len(items)) // the admitted unit serving each item
	var solves, deduped, shed int
	for _, u := range units {
		if u.shed {
			// A full lane sheds the whole unit (429-class per-item errors
			// with a backlog-derived retry estimate): under saturation,
			// refusing early beats queueing cheap items behind
			// multi-second solves.
			retry := s.retryAfterSeconds()
			for _, idx := range u.members {
				out[idx] = BatchItem{
					Index:  idx,
					Lane:   u.lane,
					Error:  fmt.Sprintf("%s lane saturated; retry after %ds", u.lane, retry),
					Status: http.StatusTooManyRequests,
				}
			}
			shed += len(u.members)
			continue
		}
		for _, idx := range u.members {
			unitOf[idx] = u
		}
		deduped += len(u.members) - 1
		if u.probed == nil {
			solves++
		}
	}
	s.m.batchShed.Add(uint64(shed))
	if shed == len(items) {
		// Nothing was admitted: make the whole request a retryable 429 so
		// clients and the routing proxy can back off without parsing the
		// per-item stream.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "all lanes saturated")
		return
	}

	// Stream results in request order as each item's unit completes.
	// Item i is written (and flushed) as soon as units 0..i's work
	// allows, so early fast-lane completions reach the client while
	// heavy solves are still running.
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"items":[`)
	var ok, errs int
	for i := range out {
		// out[i] is the unit's to write until await returns.
		var item BatchItem
		if u := unitOf[i]; u != nil && !s.await(u) {
			item = BatchItem{Index: i, Lane: u.lane, Error: "server shutting down", Status: http.StatusServiceUnavailable}
		} else {
			item = out[i]
		}
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if item.Error != "" {
			errs++
		} else {
			ok++
		}
		enc.Encode(item) // Encode appends \n — harmless inside the array
		if flusher != nil {
			flusher.Flush()
		}
	}
	sum := BatchSummary{
		Items:     len(items),
		OK:        ok,
		Errors:    errs,
		Solves:    solves,
		Deduped:   deduped,
		Shed:      shed,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	fmt.Fprint(w, `],"summary":`)
	enc.Encode(sum)
	fmt.Fprint(w, `}`)
}

// prepare validates and canonically labels every requested instance
// concurrently under a pool of GOMAXPROCS workers, inside one
// canonicalize span. This is the per-request fixed cost a batch exists
// to amortize; it never touches the cache or the lanes, so it runs at
// full parallelism without admission control. deadlineMS and includeTrace
// are the batch-wide defaults an item's own fields override.
func (s *Server) prepare(ctx context.Context, reqs []SolveRequest, deadlineMS int, includeTrace bool) []reqItem {
	items := make([]reqItem, len(reqs))
	_, csp := obs.StartSpan(ctx, "canonicalize")
	defer csp.End()
	csp.SetAttr("items", strconv.Itoa(len(reqs)))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			req, it := reqs[i], &items[i]
			if req.DeadlineMS == 0 {
				req.DeadlineMS = deadlineMS
			}
			it.includeTrace = includeTrace || req.IncludeTrace
			it.p, it.deadline, it.err = s.parseRequest(req)
			if it.err == nil && req.Async {
				it.err = errors.New("async is not supported in batch mode")
			}
			if it.err != nil {
				return
			}
			inst := instcache.Instance{G: it.p.G, Model: it.p.Model, R: it.p.R, Convention: it.p.Convention}
			it.key, it.perm = inst.Key()
		}()
	}
	wg.Wait()
	return items
}

// admit is the one admission path of the node, for a single POST
// /solve (sync or async) and a batch alike. It groups the valid items
// by canonical key — k isomorphic instances become one unit, solved
// under its widest member deadline so no member is served a weaker
// tier than it asked for — probes every unit with one batched cache
// probe, and classifies each: probe-served units and units whose whole
// budget fits fastLaneBudget ride the fast lane, anything that may
// hold a worker for a long exact solve queues on the heavy lane. Each
// unit is then submitted as run(u) under a lane-queue span, or marked
// shed when its lane is full. Units are returned in order of their
// first member.
func (s *Server) admit(ctx context.Context, items []reqItem, start time.Time, run func(*unit)) []*unit {
	var units []*unit
	byKey := make(map[string]*unit)
	for i, it := range items {
		if it.err != nil {
			continue
		}
		u := byKey[it.key]
		if u == nil {
			u = &unit{
				keyedSolve: keyedSolve{key: it.key, p: it.p},
				start:      start,
				done:       make(chan struct{}),
			}
			byKey[it.key] = u
			units = append(units, u)
		}
		u.deadline = max(u.deadline, it.deadline)
		u.members = append(u.members, i)
	}

	keys := make([]string, len(units))
	tiers := make([]int, len(units))
	for i, u := range units {
		u.tier = instcache.TierForBudget(u.deadline)
		keys[i], tiers[i] = u.key, u.tier
	}
	_, psp := obs.StartSpan(ctx, "cache-probe")
	psp.SetAttr("groups", strconv.Itoa(len(units)))
	for i, v := range s.cache.ProbeBatch(keys, tiers) {
		u := units[i]
		u.probed = v
		u.lane = laneHeavy
		if v != nil || u.deadline <= fastLaneBudget {
			u.lane = laneFast
		}
	}
	psp.End()

	for _, u := range units {
		// The lane-queue span starts at submission and ends when a lane
		// worker picks the unit up — the queue wait is exactly the gap
		// admission control exists to bound.
		_, u.queued = obs.StartSpan(ctx, "lane-queue")
		u.queued.SetAttr("lane", u.lane)
		if !s.lanes.byName(u.lane).submit(func() {
			if !u.started.CompareAndSwap(false, true) {
				return // given up at shutdown
			}
			defer close(u.done)
			u.queued.End()
			run(u)
		}) {
			u.queued.SetAttr("shed", "true")
			u.queued.End()
			u.shed = true
		}
	}
	return units
}

// await blocks until an admitted (not shed) unit's run is over and
// reports whether it ran. It is the one shutdown rule: a unit already
// running when Close fires still delivers its interval, but a unit
// still queued never runs — await gives it up, and its members answer
// 503.
func (s *Server) await(u *unit) bool {
	select {
	case <-u.done:
	case <-s.closed:
		if u.started.CompareAndSwap(false, true) {
			u.queued.End()
			u.dropped = true
			close(u.done)
		}
		<-u.done
	}
	return !u.dropped
}

// runUnit is what a lane worker runs for an admitted unit: one
// serveKey — the probe's value when the probe hit, otherwise one
// cache/singleflight round trip — then one translated, replay-verified
// response per member into out. Every member's latency runs from the
// request start; a member's translation failure poisons only that
// member.
func (s *Server) runUnit(ctx context.Context, u *unit, items []reqItem, out []BatchItem) {
	kr, err := s.serveKey(ctx, u.keyedSolve, items[u.members[0]].perm, u.probed, u.start)
	for n, idx := range u.members {
		item := BatchItem{Index: idx, Lane: u.lane}
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			item.Error, item.Status = "an identical solve is in flight and exceeded this request's deadline; retry shortly", http.StatusServiceUnavailable
		case err != nil:
			item.Error, item.Status = err.Error(), http.StatusUnprocessableEntity
		default:
			mr := kr
			mr.Shared = kr.Shared || n > 0
			resp, err := s.buildResponse(ctx, items[idx].p, mr, items[idx].perm, items[idx].includeTrace, u.start)
			s.reqSeconds.observe(time.Since(u.start))
			if err != nil {
				item.Error, item.Status = err.Error(), http.StatusUnprocessableEntity
				break
			}
			if n > 0 {
				s.m.batchDeduped.Add(1)
			}
			item.Result = &resp
		}
		out[idx] = item
	}
}
