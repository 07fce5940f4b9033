package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/obs"
	"rbpebble/internal/service"
)

// TenantHeader names the request header that identifies a tenant for
// token-bucket admission at the proxy.
const TenantHeader = "X-Rbpebble-Tenant"

// admitTenant charges n solve items against the requesting tenant's
// token bucket. On rejection it writes the 429 (with a Retry-After
// derived from the bucket's refill rate) and returns false.
func (p *Proxy) admitTenant(w http.ResponseWriter, r *http.Request, n int) bool {
	ok, retry := p.quota.Take(r.Header.Get(TenantHeader), n)
	if ok {
		return true
	}
	p.m.quotaRejected.Add(1)
	secs := int(retry/time.Second) + 1
	if secs > 60 {
		secs = 60
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, http.StatusTooManyRequests, "tenant quota exhausted")
	return false
}

// handleSolveBatch splits a client batch by canonical instance key
// across the fleet, fans the per-node sub-batches out through the
// hardened comm layer, and reassembles per-item results in request
// order. Splitting by canonical key keeps the node-side in-batch dedup
// effective: every isomorphism class lands whole on the replica whose
// cache owns it.
func (p *Proxy) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	p.m.requests.Add(1)
	// Trace before any rejection so quota 429s and parse 400s carry
	// X-Rbpebble-Trace; every sub-batch forward reuses the one ID.
	ctx, _ := obs.StartRequest(w, r, p.recorder)
	var req service.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		p.m.errors.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Items) == 0 {
		p.m.errors.Add(1)
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if !p.admitTenant(w, r, len(req.Items)) {
		return
	}
	p.m.batches.Add(1)
	p.m.batchItems.Add(uint64(len(req.Items)))

	// Route every item: canonical key -> first eligible owner.
	// Items the routing parse rejects get their per-item error here
	// (the node would reject them identically); they don't burn a
	// forward.
	out := make([]service.BatchItem, len(req.Items))
	keys := make([]string, len(req.Items))
	var keyWG sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := range req.Items {
		keyWG.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer keyWG.Done()
			defer func() { <-sem }()
			key, err := RouteKey(req.Items[i], p.cfg.MaxNodes)
			if err != nil {
				out[i] = service.BatchItem{Index: i, Error: err.Error(), Status: http.StatusUnprocessableEntity}
				return
			}
			keys[i] = key
		}(i)
	}
	keyWG.Wait()

	if p.membership.Size() == 0 {
		p.m.errors.Add(1)
		httpError(w, http.StatusServiceUnavailable, "no cluster members")
		return
	}

	// Fan out through the keyed fan-out: a sub-batch whose target is
	// gone (transport error, 502, draining 503) is re-split among the
	// remaining members. Only the items the routing parse accepted are
	// routed; pos maps a routed index back to its request position.
	var pos []int
	var routed []string
	for i, key := range keys {
		if key != "" {
			pos, routed = append(pos, i), append(routed, key)
		}
	}
	var solves atomic.Int64 // canonical-class solves the nodes reported across sub-batches
	unsent, rounds := p.scatter(routed, "", func(target string, idxs []int) bool {
		at := make([]int, len(idxs))
		for j, k := range idxs {
			at[j] = pos[k]
		}
		reroute, n := p.forwardSubBatch(ctx, target, at, req, out)
		solves.Add(int64(n))
		return reroute
	})
	if rounds > 1 {
		p.m.failovers.Add(uint64(rounds - 1))
	}
	for _, k := range unsent {
		i := pos[k]
		out[i] = service.BatchItem{Index: i, Error: "all cluster members failed", Status: http.StatusBadGateway}
	}

	// Reassemble in request order and recompute the cluster-level
	// summary (node-local summaries describe sub-batches; the client
	// sees the whole).
	sum := service.BatchSummary{Items: len(req.Items), Solves: int(solves.Load())}
	for i := range out {
		if out[i].Error != "" {
			sum.Errors++
			if out[i].Status == http.StatusTooManyRequests {
				sum.Shed++
			}
		} else {
			sum.OK++
			if res := out[i].Result; res != nil && (res.Shared || res.Cached) {
				sum.Deduped++
			}
		}
	}
	writeJSON(w, service.BatchResponse{Items: out, Summary: sum})
}

// forwardSubBatch posts one node's sub-batch — the request items at
// positions idxs — and folds its per-item results back into the
// client-order slice. reroute asks for the items to be retried on
// another member (the node is unreachable or going away); per-item
// errors from a healthy node are final. solves is the canonical-class
// solve count the node's summary reported, folded into the
// cluster-level summary.
func (p *Proxy) forwardSubBatch(ctx context.Context, target string, idxs []int, req service.BatchRequest, out []service.BatchItem) (reroute bool, solves int) {
	p.m.subBatches.Add(1)
	ctx, fsp := obs.StartSpan(ctx, "forward")
	fsp.SetAttr("member", target)
	fsp.SetAttr("items", strconv.Itoa(len(idxs)))
	defer fsp.End()
	items := make([]service.SolveRequest, len(idxs))
	for j, i := range idxs {
		items[j] = req.Items[i]
	}
	body, err := json.Marshal(service.BatchRequest{
		Items:        items,
		DeadlineMS:   req.DeadlineMS,
		IncludeTrace: req.IncludeTrace,
	})
	if err != nil {
		for _, i := range idxs {
			out[i] = service.BatchItem{Index: i, Error: err.Error(), Status: http.StatusInternalServerError}
		}
		return false, 0
	}
	resp, err := p.comm.Post(ctx, target, "/solve/batch", "application/json", body)
	if err != nil {
		p.membership.Demote(target)
		return true, 0
	}
	defer resp.Body.Close()
	if memberGone(resp) {
		io.Copy(io.Discard, resp.Body)
		p.membership.Demote(target)
		return true, 0
	}
	if resp.StatusCode != http.StatusOK {
		// A per-node refusal from a healthy node (whole-batch 429, size
		// limit): relay it per item without demoting — the items reached
		// a live node that chose to refuse them.
		msg := fmt.Sprintf("node %s refused sub-batch: status %d", target, resp.StatusCode)
		if b, rerr := io.ReadAll(io.LimitReader(resp.Body, 512)); rerr == nil && len(bytes.TrimSpace(b)) > 0 {
			msg = string(bytes.TrimSpace(b))
		}
		for _, i := range idxs {
			out[i] = service.BatchItem{Index: i, Error: msg, Status: resp.StatusCode}
		}
		return false, 0
	}
	var br service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		p.membership.Demote(target)
		return true, 0
	}
	p.m.routed.Add(1)
	for _, item := range br.Items {
		if item.Index < 0 || item.Index >= len(idxs) {
			continue
		}
		orig := idxs[item.Index]
		item.Index = orig
		out[orig] = item
	}
	return false, br.Summary.Solves
}
