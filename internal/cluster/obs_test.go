package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/obs"
	"rbpebble/internal/service"
)

// fetchTrace fetches a span view from an arbitrary base URL.
func fetchTrace(t *testing.T, baseURL, id string) (int, obs.TraceView) {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv obs.TraceView
	json.NewDecoder(resp.Body).Decode(&tv)
	return resp.StatusCode, tv
}

// nodeURL maps a member (host:port) back to its httptest base URL.
func (tc *testCluster) nodeURL(t *testing.T, member string) string {
	t.Helper()
	for i, m := range tc.members {
		if m == member {
			return tc.nodeTS[i].URL
		}
	}
	t.Fatalf("unknown member %s", member)
	return ""
}

// TestTraceIDPropagatedToNode: a proxied solve carries one trace ID
// end to end — echoed by the proxy, stamped on the forward, and
// queryable on the serving node with the node-side span pipeline.
func TestTraceIDPropagatedToNode(t *testing.T) {
	tc := newTestCluster(t, 2)
	const traceID = "cluster-e2e-trace-01"
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(4)))
	req, _ := http.NewRequest("POST", tc.ts.URL+"/solve", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	served := resp.Header.Get("X-Rbproxy-Node")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Fatalf("proxy echoed trace %q, want %q", got, traceID)
	}

	// The serving node holds the solve-side span set under the same ID.
	code, tv := fetchTrace(t, tc.nodeURL(t, served), traceID)
	if code != http.StatusOK || tv.TraceID != traceID {
		t.Fatalf("node trace lookup: status %d, id %q", code, tv.TraceID)
	}
	names := map[string]bool{}
	for _, sv := range tv.Spans {
		names[sv.Name] = true
	}
	for _, want := range []string{"canonicalize", "cache-probe", "lane-queue", "cache"} {
		if !names[want] {
			t.Fatalf("node span %q missing: %+v", want, tv.Spans)
		}
	}

	// The proxy holds its own routing-side span set for the same ID,
	// and resolves it locally on /debug/trace.
	code, pv := fetchTrace(t, tc.ts.URL, traceID)
	if code != http.StatusOK {
		t.Fatalf("proxy trace lookup status %d", code)
	}
	var sawForward bool
	for _, sv := range pv.Spans {
		if sv.Name == "forward" {
			sawForward = true
			if sv.Attrs["member"] != served {
				t.Fatalf("forward span member = %q, want %q", sv.Attrs["member"], served)
			}
		}
	}
	if !sawForward {
		t.Fatalf("proxy trace has no forward span: %+v", pv.Spans)
	}
}

// TestFailoverKeepsTraceID: when the owner dies mid-request the proxy
// fails over under the SAME trace ID, recording a fresh forward span
// per attempt, and the node that finally serves sees that ID.
func TestFailoverKeepsTraceID(t *testing.T) {
	tc := newTestCluster(t, 2)
	const traceID = "cluster-failover-trace"
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(4)))

	// Find the key's owner and kill its listener so the first forward
	// fails at dial time.
	var sreq service.SolveRequest
	if err := json.Unmarshal([]byte(body), &sreq); err != nil {
		t.Fatal(err)
	}
	key, err := RouteKey(sreq, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.proxy.Membership().Owners(key)[0]
	tc.nodeTS[indexOf(t, tc.members, owner)].Close()

	req, _ := http.NewRequest("POST", tc.ts.URL+"/solve", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	served := resp.Header.Get("X-Rbproxy-Node")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover solve status %d", resp.StatusCode)
	}
	if served == owner {
		t.Fatalf("request served by the dead owner %s", served)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Fatalf("trace header = %q across failover, want %q", got, traceID)
	}

	// Proxy-side: one trace, two forward spans (the failed attempt and
	// the winning one), distinct span IDs.
	_, pv := fetchTrace(t, tc.ts.URL, traceID)
	var forwards []obs.SpanView
	for _, sv := range pv.Spans {
		if sv.Name == "forward" {
			forwards = append(forwards, sv)
		}
	}
	if len(forwards) != 2 {
		t.Fatalf("got %d forward spans, want 2: %+v", len(forwards), pv.Spans)
	}
	if forwards[0].ID == forwards[1].ID {
		t.Fatal("failover attempts share a span")
	}
	if forwards[0].Attrs["member"] != owner || forwards[0].Attrs["err"] == "" {
		t.Fatalf("first forward span = %+v, want failed attempt on %s", forwards[0], owner)
	}
	if forwards[1].Attrs["member"] != served || forwards[1].Attrs["status"] != "200" {
		t.Fatalf("second forward span = %+v, want 200 from %s", forwards[1], served)
	}

	// Node-side: the survivor recorded the same trace ID.
	code, tv := fetchTrace(t, tc.nodeURL(t, served), traceID)
	if code != http.StatusOK || tv.TraceID != traceID {
		t.Fatalf("survivor trace lookup: status %d, id %q", code, tv.TraceID)
	}
}

func indexOf(t *testing.T, members []string, m string) int {
	t.Helper()
	for i, v := range members {
		if v == m {
			return i
		}
	}
	t.Fatalf("member %s not found", m)
	return -1
}

// TestFleetMergedDebugSolves: the proxy merges every node's telemetry
// ring newest-first with node annotations, and ?n truncates the merged
// view.
func TestFleetMergedDebugSolves(t *testing.T) {
	tc := newTestCluster(t, 2)
	// One solve directly on each node, ordered in time, so the merge
	// provably spans processes.
	for i, g := range []int{3, 4} {
		body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(g)))
		resp, err := http.Post(tc.nodeTS[i].URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d solve status %d", i, resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(n int) service.SolvesDebugResponse {
		t.Helper()
		url := tc.ts.URL + "/debug/solves"
		if n > 0 {
			url += fmt.Sprintf("?n=%d", n)
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out service.SolvesDebugResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	merged := get(0)
	if merged.Total != 2 || len(merged.Records) != 2 {
		t.Fatalf("merged total=%d records=%d, want 2/2", merged.Total, len(merged.Records))
	}
	if merged.Records[0].Node != tc.members[1] || merged.Records[1].Node != tc.members[0] {
		t.Fatalf("node annotations/ordering wrong: %s then %s (members %v)",
			merged.Records[0].Node, merged.Records[1].Node, tc.members)
	}
	if merged.Records[0].Start.Before(merged.Records[1].Start) {
		t.Fatal("merged records not newest-first")
	}
	if merged.Records[0].Features.N == 0 || merged.Records[0].Disposition == "" {
		t.Fatalf("merged record incomplete: %+v", merged.Records[0])
	}

	one := get(1)
	if one.Total != 2 || len(one.Records) != 1 || one.Records[0].Node != tc.members[1] {
		t.Fatalf("n=1 merge = %+v", one)
	}
}

// TestProxyBatchTraceHeader: batch requests carry the trace header on
// the response too.
func TestProxyBatchTraceHeader(t *testing.T) {
	tc := newTestCluster(t, 2)
	body := fmt.Sprintf(`{"items":[{"dag":%s,"model":"oneshot","r":3}]}`, dagJSON(t, daggen.Pyramid(3)))
	resp, err := http.Post(tc.ts.URL+"/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if resp.Header.Get(obs.TraceHeader) == "" {
		t.Fatal("batch response missing trace header")
	}
	var br service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 1 || br.Items[0].Error != "" {
		t.Fatalf("batch items = %+v", br.Items)
	}
}

// TestDebugTraceFanOut: a trace known only to a node (not the proxy —
// the solve went straight to the node) is still resolvable through the
// proxy's /debug/trace fan-out.
func TestDebugTraceFanOut(t *testing.T) {
	tc := newTestCluster(t, 2)
	const traceID = "node-local-trace-0001"
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(3)))
	req, _ := http.NewRequest("POST", tc.nodeTS[1].URL+"/solve", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct node solve status %d", resp.StatusCode)
	}
	code, tv := fetchTrace(t, tc.ts.URL, traceID)
	if code != http.StatusOK || tv.TraceID != traceID {
		t.Fatalf("fan-out trace lookup: status %d, id %q", code, tv.TraceID)
	}
	if len(tv.Spans) == 0 {
		t.Fatal("fan-out returned an empty span set")
	}
	if code, _ := fetchTrace(t, tc.ts.URL, "totally-unknown-trace"); code != http.StatusNotFound {
		t.Fatalf("unknown trace fan-out status %d, want 404", code)
	}
}
