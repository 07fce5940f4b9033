package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"rbpebble/internal/obs"
	"rbpebble/internal/service"
)

// handleDebugSolves merges the fleet's per-solve telemetry rings:
// GET /debug/solves?n=K fans out to every healthy member concurrently,
// annotates each record with the member that produced it, sorts the
// union newest-first, and truncates to K (all merged records when n is
// absent or non-positive). Totals are summed across the fleet, so the
// learned portfolio scheduler can bulk-pull one feature/outcome stream
// for the whole cluster.
func (p *Proxy) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	p.m.requests.Add(1)
	p.m.fanouts.Add(1)
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	path := "/debug/solves"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	parts := gather(p, r.Context(), func(ctx context.Context, member string) (part service.SolvesDebugResponse, err error) {
		return part, p.comm.Call(ctx, member, http.MethodGet, path, nil, &part)
	})
	merged := service.SolvesDebugResponse{Records: []obs.SolveRecord{}}
	for member, part := range parts {
		for i := range part.Records {
			part.Records[i].Node = member
		}
		merged.Total += part.Total
		merged.Records = append(merged.Records, part.Records...)
	}
	sort.SliceStable(merged.Records, func(i, j int) bool {
		return merged.Records[i].Start.After(merged.Records[j].Start)
	})
	if n > 0 && len(merged.Records) > n {
		merged.Records = merged.Records[:n]
	}
	writeJSON(w, merged)
}

// handleDebugTrace resolves a trace ID anywhere in the fleet: the
// proxy's own span set (route/forward spans) is checked first, then
// the healthy members are asked in order and the first non-404 answer
// is relayed. A trace that spans proxy AND node exists as two span
// sets — one per process — under the same ID; callers fetch the node
// half via the relayed view and the proxy half stays queryable here
// after the node's ring evicts it.
func (p *Proxy) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	p.m.requests.Add(1)
	id := r.PathValue("id")
	if tr := p.recorder.Lookup(id); tr != nil {
		writeJSON(w, tr.View())
		return
	}
	p.m.fanouts.Add(1)
	if resp, member := p.firstAnswer(r.Context(), http.MethodGet, "/debug/trace/"+id, known); resp != nil {
		relayResponse(w, resp, member)
		return
	}
	httpError(w, http.StatusNotFound, "unknown trace on every cluster member")
}

// handleDebugJobSearch resolves an async job's live search telemetry
// anywhere in the fleet: job IDs carry a per-node random prefix, so the
// healthy members are simply asked in order and the first 200 answer
// wins (a body that does not decode is a 502). The owning node's name
// is stamped into the body (and the X-Rbproxy-Node header), so a
// dashboard polling a running job knows which member's gauges to watch.
func (p *Proxy) handleDebugJobSearch(w http.ResponseWriter, r *http.Request) {
	p.m.requests.Add(1)
	p.m.fanouts.Add(1)
	resp, member := p.firstAnswer(r.Context(), http.MethodGet, "/debug/jobs/"+r.PathValue("id")+"/search",
		func(resp *http.Response) bool { return resp.StatusCode == http.StatusOK })
	if resp == nil {
		httpError(w, http.StatusNotFound, "unknown job on every cluster member")
		return
	}
	defer resp.Body.Close()
	var body service.SearchDebugResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		httpError(w, http.StatusBadGateway, "malformed job search from "+member+": "+err.Error())
		return
	}
	body.Node = member
	w.Header().Set("X-Rbproxy-Node", member)
	writeJSON(w, body)
}
