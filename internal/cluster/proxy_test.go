package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/service"
)

// testCluster is a 2-node rbserve fleet behind one proxy, all
// in-process.
type testCluster struct {
	nodes   []*service.Server
	nodeTS  []*httptest.Server
	members []string
	proxy   *Proxy
	ts      *httptest.Server
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		s := service.New(service.Config{})
		ts := httptest.NewServer(s.Handler())
		tc.nodes = append(tc.nodes, s)
		tc.nodeTS = append(tc.nodeTS, ts)
		tc.members = append(tc.members, strings.TrimPrefix(ts.URL, "http://"))
	}
	// ProbeInterval < 0: no background prober — tests drive health
	// transitions deterministically via ProbeOnce and the member table.
	tc.proxy = NewProxy(ProxyConfig{Members: tc.members, ProbeInterval: -1})
	tc.ts = httptest.NewServer(tc.proxy.Handler())
	t.Cleanup(func() {
		tc.ts.Close()
		tc.proxy.Close()
		for i := range tc.nodes {
			tc.nodeTS[i].Close()
			tc.nodes[i].Close()
		}
	})
	return tc
}

func dagJSON(t *testing.T, g *dag.DAG) string {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func (tc *testCluster) post(t *testing.T, body string) (int, service.SolveResponse, string) {
	t.Helper()
	resp, err := http.Post(tc.ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var sr service.SolveResponse
	json.Unmarshal(buf.Bytes(), &sr)
	return resp.StatusCode, sr, resp.Header.Get("X-Rbproxy-Node")
}

func (tc *testCluster) metrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(tc.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

func metricValue(t *testing.T, dump, name string) int {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		var v int
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, dump)
	return 0
}

// relabeled returns an isomorphic copy of g with reversed node IDs.
func relabeled(g *dag.DAG) *dag.DAG {
	h := dag.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			h.AddEdge(dag.NodeID(g.N()-1-v), dag.NodeID(g.N()-1-int(w)))
		}
	}
	return h
}

// TestProxyRoutesByCanonicalKey: repeats — and isomorphic relabelings
// — of one instance land on the same node, proven by the second
// request hitting that node's cache.
func TestProxyRoutesByCanonicalKey(t *testing.T) {
	tc := newTestCluster(t, 2)
	g := daggen.Pyramid(4)
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, g))
	code, sr, node1 := tc.post(t, body)
	if code != http.StatusOK || !sr.Optimal || sr.Cached {
		t.Fatalf("first: code=%d %+v", code, sr)
	}
	if node1 == "" {
		t.Fatal("no X-Rbproxy-Node header")
	}
	code, sr, node2 := tc.post(t, body)
	if code != http.StatusOK || !sr.Cached || node2 != node1 {
		t.Fatalf("repeat: code=%d node=%s (first %s) %+v", code, node2, node1, sr)
	}
	// Isomorphic relabeling: same canonical key, same node, cache hit.
	iso := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, relabeled(g)))
	code, sr, node3 := tc.post(t, iso)
	if code != http.StatusOK || !sr.Cached || node3 != node1 {
		t.Fatalf("relabeled: code=%d node=%s (first %s) %+v", code, node3, node1, sr)
	}
}

// TestProxyWarmStartConvergence is the tentpole acceptance path: two
// deadline-limited solves of an isomorphic-relabeled hard instance
// through the proxy; the second must route to the same node,
// warm-start, and certify an interval no wider than the first.
func TestProxyWarmStartConvergence(t *testing.T) {
	tc := newTestCluster(t, 2)
	// fft(3) R=3 in nodel: serial A* needs seconds to close it.
	g := daggen.FFT(3)
	body := fmt.Sprintf(`{"dag":%s,"model":"nodel","r":3,"deadline_ms":100}`, dagJSON(t, g))
	code, first, node1 := tc.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("first: code=%d", code)
	}
	if first.Optimal {
		t.Skip("host closed fft(3) nodel R=3 in 100ms; convergence not observable")
	}
	iso := fmt.Sprintf(`{"dag":%s,"model":"nodel","r":3,"deadline_ms":100}`, dagJSON(t, relabeled(g)))
	code, second, node2 := tc.post(t, iso)
	if code != http.StatusOK {
		t.Fatalf("second: code=%d", code)
	}
	if node2 != node1 {
		t.Fatalf("relabeled hard instance routed to %s, first went to %s", node2, node1)
	}
	if !second.Warmed {
		t.Fatalf("second request did not warm-start: %+v", second)
	}
	if second.Upper > first.Upper || second.Lower < first.Lower {
		t.Fatalf("interval widened: first [%v, %v], second [%v, %v]",
			first.Lower, first.Upper, second.Lower, second.Upper)
	}
	dump := tc.metrics(t)
	if got := metricValue(t, dump, "cluster_rbserve_warm_starts_total"); got != 1 {
		t.Fatalf("cluster warm_starts_total = %d, want 1\n%s", got, dump)
	}
}

// TestProxyFailover: when the owning node drains, the proxy demotes it
// and retries the key's next owner; when it recovers, a probe
// re-admits it.
func TestProxyFailover(t *testing.T) {
	tc := newTestCluster(t, 2)
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(4)))
	code, _, owner := tc.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("setup solve failed: %d", code)
	}
	ownerIdx := -1
	for i, m := range tc.members {
		if m == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %s not a member", owner)
	}

	// Drain the owner: its healthz and /solve start returning 503.
	tc.nodes[ownerIdx].Drain()
	code, sr, node := tc.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("failover solve: code=%d", code)
	}
	if node == owner {
		t.Fatalf("request still served by draining node %s", node)
	}
	if !sr.Optimal {
		t.Fatalf("failover result not optimal: %+v", sr)
	}
	dump := tc.metrics(t)
	if got := metricValue(t, dump, "rbproxy_failovers_total"); got < 1 {
		t.Fatalf("failovers_total = %d, want >= 1", got)
	}
	if healthy(tc.proxy.Membership(), owner) {
		t.Fatal("draining node still marked healthy after failover")
	}
	// Subsequent requests route straight to the surviving node (no
	// extra failover hop).
	before := metricValue(t, dump, "rbproxy_failovers_total")
	code, _, node = tc.post(t, body)
	if code != http.StatusOK || node == owner {
		t.Fatalf("post-demotion routing: code=%d node=%s", code, node)
	}
	if got := metricValue(t, tc.metrics(t), "rbproxy_failovers_total"); got != before {
		t.Fatalf("demoted node still in the hot path: failovers %d -> %d", before, got)
	}
}

// TestProxyJobFanout: async jobs work through the proxy even though
// job IDs are node-local — polls and cancellations fan out.
func TestProxyJobFanout(t *testing.T) {
	tc := newTestCluster(t, 2)
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"async":true}`, dagJSON(t, daggen.Pyramid(4)))
	resp, err := http.Post(tc.ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr service.JobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || jr.ID == "" {
		t.Fatalf("submit through proxy: %d %+v", resp.StatusCode, jr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish via proxy polling")
		}
		resp, err := http.Get(tc.ts.URL + "/solve/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got service.JobResponse
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if got.Status == "done" {
			if got.Result == nil || !got.Result.Optimal {
				t.Fatalf("done without optimal result: %+v", got)
			}
			break
		}
		if got.Status == "error" || got.Status == "canceled" {
			t.Fatalf("job failed: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Unknown IDs 404 after probing every member.
	resp, err = http.Get(tc.ts.URL + "/solve/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestClusterHealthView: /healthz aggregates per-node health; the
// cluster stays ok while one node lives, 503 when none do. /healthz
// and /cluster/members read one member table, so they agree member by
// member on health and drain state.
func TestClusterHealthView(t *testing.T) {
	tc := newTestCluster(t, 2)
	get := func() (int, ClusterHealth) {
		resp, err := http.Get(tc.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ch ClusterHealth
		json.NewDecoder(resp.Body).Decode(&ch)
		mresp, err := http.Get(tc.ts.URL + "/cluster/members")
		if err != nil {
			t.Fatal(err)
		}
		defer mresp.Body.Close()
		var members []MemberView
		json.NewDecoder(mresp.Body).Decode(&members)
		if len(members) != len(ch.Nodes) {
			t.Fatalf("/healthz lists %d nodes, /cluster/members %d", len(ch.Nodes), len(members))
		}
		for i, n := range ch.Nodes {
			if m := members[i]; m.Member != n.Member || m.Healthy != n.Healthy || m.Draining != n.Draining {
				t.Fatalf("/healthz row %+v disagrees with /cluster/members row %+v", n, m)
			}
		}
		return resp.StatusCode, ch
	}
	code, ch := get()
	if code != http.StatusOK || !ch.OK || len(ch.Nodes) != 2 {
		t.Fatalf("healthy cluster: %d %+v", code, ch)
	}

	// Drain node 0 and re-probe: the view demotes exactly it.
	tc.nodes[0].Drain()
	p := &Prober{ms: tc.proxy.Membership(), comm: tc.proxy.comm}
	p.ProbeOnce()
	code, ch = get()
	if code != http.StatusOK || !ch.OK {
		t.Fatalf("one-node cluster should stay ok: %d %+v", code, ch)
	}
	healthyCount := 0
	for _, n := range ch.Nodes {
		if n.Healthy {
			healthyCount++
		}
	}
	if healthyCount != 1 {
		t.Fatalf("want exactly 1 healthy node, got %+v", ch)
	}
	for _, n := range ch.Nodes {
		if n.Draining != (n.Member == tc.members[0]) {
			t.Fatalf("want exactly %s draining, got %+v", tc.members[0], ch)
		}
	}

	tc.nodes[1].Drain()
	p.ProbeOnce()
	code, ch = get()
	if code != http.StatusServiceUnavailable || ch.OK {
		t.Fatalf("all-drained cluster: %d %+v", code, ch)
	}
}

// TestProxyRejectsHugeNodeCount: the routing parse enforces the same
// node-count guard as the nodes — a tiny body declaring two billion
// nodes must be rejected at the proxy, not allocated.
func TestProxyRejectsHugeNodeCount(t *testing.T) {
	tc := newTestCluster(t, 2)
	code, _, _ := tc.post(t, `{"dag":{"nodes":2000000000,"edges":[]},"model":"oneshot"}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("huge node count: code=%d, want 422", code)
	}
}

// TestProxyRelaysNonDrainingServiceUnavailable: a per-request 503
// without the draining header (queue full, wait timeout) comes from a
// healthy node and must be relayed, not treated as node death.
func TestProxyRelaysNonDrainingServiceUnavailable(t *testing.T) {
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"job queue full"}`, http.StatusServiceUnavailable)
	}))
	defer overloaded.Close()
	member := strings.TrimPrefix(overloaded.URL, "http://")
	p := NewProxy(ProxyConfig{Members: []string{member}, ProbeInterval: -1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(3)))
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("code=%d, want the node's 503 relayed", resp.StatusCode)
	}
	if !healthy(p.Membership(), member) {
		t.Fatal("healthy node demoted for a per-request 503")
	}
}
