package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
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

// batchGroup is one canonical-equivalence class within a batch: all
// member items share the canonical key, so the group performs exactly
// one cache/singleflight round trip and k per-member trace
// translations.
type batchGroup struct {
	key      string
	members  []int // item indices, request order
	deadline time.Duration
	probed   *instcache.Value // pre-dispatch cache probe hit, if any
	lane     string
	shed     bool
	done     chan struct{}
}

// batchItemState carries one item through the canonicalization pool.
type batchItemState struct {
	p            solve.Problem
	deadline     time.Duration
	includeTrace bool
	key          string
	perm         []dag.NodeID
	err          error
}

// handleSolveBatch is POST /solve/batch: the amortized request plane.
// The body is decoded once; items are canonicalized concurrently
// through a bounded pool, deduplicated within the batch by canonical
// key, classified onto the fast or heavy lane, and streamed back in
// request order as each item's group completes.
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

	// Phase 1 — amortized canonicalization: every item is validated and
	// canonically labeled concurrently under a bounded worker pool. This
	// is the per-request fixed cost the batch exists to amortize; it
	// never touches the cache or the lanes, so it can run at full
	// parallelism without admission control.
	states := make([]batchItemState, len(req.Items))
	_, csp := obs.StartSpan(ctx, "canonicalize")
	csp.SetAttr("items", strconv.Itoa(len(req.Items)))
	sem := make(chan struct{}, s.cfg.CanonWorkers)
	var canonWG sync.WaitGroup
	for i := range req.Items {
		canonWG.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer canonWG.Done()
			defer func() { <-sem }()
			item := req.Items[i]
			if item.DeadlineMS == 0 {
				item.DeadlineMS = req.DeadlineMS
			}
			st := &states[i]
			st.includeTrace = req.IncludeTrace || item.IncludeTrace
			st.p, st.deadline, st.err = s.parseRequest(item)
			if st.err != nil {
				return
			}
			if item.Async {
				st.err = errors.New("async is not supported in batch mode")
				return
			}
			inst := instcache.Instance{G: st.p.G, Model: st.p.Model, R: st.p.R, Convention: st.p.Convention}
			st.key, st.perm = inst.Key()
		}(i)
	}
	canonWG.Wait()
	csp.End()

	// Phase 2 — in-batch dedup: group items by canonical key. k
	// isomorphic instances become one group = one canonicalization-class
	// solve; each member still gets its own translation back into its
	// own labeling. The group budget is the widest member deadline, so
	// no member is served a weaker tier than it asked for.
	var groups []*batchGroup
	groupOf := make(map[string]*batchGroup)
	for i := range states {
		st := &states[i]
		if st.err != nil {
			continue
		}
		g := groupOf[st.key]
		if g == nil {
			g = &batchGroup{key: st.key, deadline: st.deadline, done: make(chan struct{})}
			groupOf[st.key] = g
			groups = append(groups, g)
		} else if st.deadline > g.deadline {
			g.deadline = st.deadline
		}
		g.members = append(g.members, i)
	}

	// Phase 3 — one batched cache probe under a single lock acquisition,
	// then lane classification: probe-served groups and groups whose
	// whole budget fits the fast-lane threshold ride the fast lane;
	// anything that may hold a worker for a long exact solve queues on
	// the heavy lane, where admission control can shed it.
	keys := make([]string, len(groups))
	tiers := make([]int, len(groups))
	for i, g := range groups {
		keys[i] = g.key
		tiers[i] = instcache.TierForBudget(g.deadline)
	}
	_, psp := obs.StartSpan(ctx, "cache-probe")
	psp.SetAttr("groups", strconv.Itoa(len(groups)))
	for i, v := range s.cache.ProbeBatch(keys, tiers) {
		groups[i].probed = v
		if v != nil || groups[i].deadline <= s.cfg.FastLaneBudget {
			groups[i].lane = laneFast
		} else {
			groups[i].lane = laneHeavy
		}
	}
	psp.End()

	// Phase 4 — dispatch each group to its lane. A full lane sheds the
	// whole group (429-class per-item errors with a backlog-derived
	// retry estimate): under saturation, refusing early beats queueing
	// cheap items behind multi-second solves.
	out := make([]BatchItem, len(req.Items))
	for i := range states {
		if err := states[i].err; err != nil {
			out[i] = BatchItem{Index: i, Error: err.Error(), Status: http.StatusUnprocessableEntity}
		}
	}
	var solvesDispatched, shedItems int
	for _, g := range groups {
		g := g
		// Per-group lane-queue span: starts at submission, ends when a
		// lane worker picks the group up — the queue-wait is exactly the
		// gap admission control exists to bound.
		gctx, qsp := obs.StartSpan(ctx, "lane-queue")
		qsp.SetAttr("lane", g.lane)
		if !s.lanes.byName(g.lane).submit(func() { qsp.End(); s.runBatchGroup(gctx, g, states, out) }) {
			qsp.SetAttr("shed", "true")
			qsp.End()
			retry := s.retryAfterSeconds()
			for _, idx := range g.members {
				out[idx] = BatchItem{
					Index:  idx,
					Lane:   g.lane,
					Error:  fmt.Sprintf("%s lane saturated; retry after %ds", g.lane, retry),
					Status: http.StatusTooManyRequests,
				}
			}
			s.m.batchShed.Add(uint64(len(g.members)))
			shedItems += len(g.members)
			g.shed = true
			close(g.done)
			continue
		}
		if g.probed == nil {
			solvesDispatched++
		}
	}
	if shedItems == len(req.Items) {
		// Nothing was admitted: make the whole request a retryable 429 so
		// clients and the routing proxy can back off without parsing the
		// per-item stream.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "all lanes saturated")
		return
	}

	// Phase 5 — stream results in request order as each item's group
	// completes. Item i is written (and flushed) as soon as groups
	// 0..i's work allows, so early fast-lane completions reach the
	// client while heavy solves are still running.
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"items":[`)
	var ok, errs int
	for i := range out {
		g := groupOf[states[i].key]
		if g != nil && states[i].err == nil {
			select {
			case <-g.done:
			case <-s.closed:
				// Lane workers are gone; anything not yet done never will
				// be. Don't read the slot (the group task may still be
				// mid-write) — synthesize the refusal.
				out[i] = BatchItem{Index: i, Lane: g.lane, Error: "server shutting down", Status: http.StatusServiceUnavailable}
			}
		}
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if out[i].Error != "" {
			errs++
		} else {
			ok++
		}
		enc.Encode(out[i]) // Encode appends \n — harmless inside the array
		if flusher != nil {
			flusher.Flush()
		}
	}
	var deduped int
	for _, g := range groups {
		if !g.shed {
			deduped += len(g.members) - 1
		}
	}
	sum := BatchSummary{
		Items:     len(req.Items),
		OK:        ok,
		Errors:    errs,
		Solves:    solvesDispatched,
		Deduped:   deduped,
		Shed:      shedItems,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	fmt.Fprint(w, `],"summary":`)
	enc.Encode(sum)
	fmt.Fprint(w, `}`)
}

// runBatchGroup serves one canonical-class group: the leader's
// serveKey — the pre-dispatch probe's value when it hit, otherwise one
// cache/singleflight round trip — then one per-member translation +
// replay verification. A member's translation failure poisons only
// that member.
func (s *Server) runBatchGroup(ctx context.Context, g *batchGroup, states []batchItemState, out []BatchItem) {
	defer close(g.done)
	leader := &states[g.members[0]]
	// The solve runs under baseCtx (not the HTTP request context): like
	// the sync path, a client that gives up mid-batch doesn't kill a
	// solve whose result is about to land in the cache. The graft keeps
	// the batch request's trace on it.
	kr, err := s.serveKey(obs.Graft(s.baseCtx, ctx),
		s.foregroundSolve(g.key, leader.p, leader.perm, g.deadline), g.probed, time.Now())
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		for _, idx := range g.members {
			out[idx] = BatchItem{Index: idx, Lane: g.lane, Error: err.Error(), Status: status}
		}
		return
	}
	for n, idx := range g.members {
		st := &states[idx]
		mStart := time.Now()
		mr := kr
		mr.Shared = kr.Shared || n > 0
		resp, err := s.buildResponse(ctx, st.p, mr, st.perm, st.includeTrace, mStart)
		s.reqSeconds.observe(time.Since(mStart))
		if err != nil {
			out[idx] = BatchItem{Index: idx, Lane: g.lane, Error: err.Error(), Status: http.StatusUnprocessableEntity}
			continue
		}
		if n > 0 {
			s.m.batchDeduped.Add(1)
		}
		out[idx] = BatchItem{Index: idx, Lane: g.lane, Result: &resp}
	}
}
