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

func (tc *testCluster) postBatch(t *testing.T, body string, tenant string) (int, service.BatchResponse, string) {
	t.Helper()
	req, err := http.NewRequest("POST", tc.ts.URL+"/solve/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var br service.BatchResponse
	json.Unmarshal(buf.Bytes(), &br)
	return resp.StatusCode, br, resp.Header.Get("Retry-After")
}

// splitPair finds two instances whose canonical keys route to
// different members of the cluster, so a batch mixing them genuinely
// fans out.
func splitPair(t *testing.T, tc *testCluster) (*dag.DAG, *dag.DAG) {
	t.Helper()
	// Ring placement depends on the members' (random httptest) ports, so
	// no fixed candidate list is guaranteed to split; chains of distinct
	// lengths are distinct canonical classes, giving an effectively
	// unbounded supply to draw from.
	candidates := []*dag.DAG{daggen.Pyramid(4)}
	for n := 8; n < 72; n++ {
		candidates = append(candidates, daggen.Chain(n))
	}
	first := batchOwner(t, tc, candidates[0])
	for _, g := range candidates[1:] {
		if batchOwner(t, tc, g) != first {
			return candidates[0], g
		}
	}
	t.Fatal("no candidate pair split across members")
	return nil, nil
}

// batchOwner computes the owner the proxy will actually route a
// `{"model":"oneshot","r":3}` batch item of g to. The probe request
// must match the item's model/R exactly: they are part of the
// canonical instance key.
func batchOwner(t *testing.T, tc *testCluster, g *dag.DAG) string {
	t.Helper()
	req := service.SolveRequest{DAG: []byte(dagJSON(t, g)), Model: "oneshot", R: 3}
	key, err := RouteKey(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tc.proxy.Membership().Owners(key)[0]
}

// TestProxyBatchSplitReassemble: a batch mixing two canonical classes
// owned by different nodes is split into per-node sub-batches, each
// node deduplicates its own class, and the proxy reassembles per-item
// results in request order.
func TestProxyBatchSplitReassemble(t *testing.T) {
	tc := newTestCluster(t, 2)
	a, b := splitPair(t, tc)

	// Interleave the two classes (a relabeling of a keeps its class).
	relA := relabeled(a)
	items := []string{
		fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, a)),
		fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, b)),
		fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, relA)),
		fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, b)),
	}
	body := fmt.Sprintf(`{"items":[%s],"deadline_ms":2000}`, strings.Join(items, ","))
	code, br, _ := tc.postBatch(t, body, "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, br)
	}
	if len(br.Items) != 4 {
		t.Fatalf("got %d items, want 4", len(br.Items))
	}
	for i, item := range br.Items {
		if item.Index != i {
			t.Fatalf("item %d has index %d — reassembly broke order: %+v", i, item.Index, br.Items)
		}
		if item.Error != "" || item.Result == nil || !item.Result.Optimal {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
	if br.Items[0].Result.Cost != br.Items[2].Result.Cost {
		t.Fatalf("isomorphic items disagree: %v vs %v", br.Items[0].Result.Cost, br.Items[2].Result.Cost)
	}
	if br.Items[1].Result.Cost != br.Items[3].Result.Cost {
		t.Fatalf("identical items disagree: %v vs %v", br.Items[1].Result.Cost, br.Items[3].Result.Cost)
	}
	// The cluster summary folds the node summaries: 2 classes, 2 solves.
	if br.Summary.Solves != 2 || br.Summary.Deduped != 2 {
		t.Fatalf("cluster summary = %+v, want 2 solves / 2 deduped", br.Summary)
	}

	dump := tc.metrics(t)
	if got := metricValue(t, dump, "rbproxy_batch_subbatches_total"); got != 2 {
		t.Fatalf("subbatches_total = %d, want 2 (one per owning node)", got)
	}
	if got := metricValue(t, dump, "rbproxy_batch_items_total"); got != 4 {
		t.Fatalf("batch_items_total = %d, want 4", got)
	}
	// Each node solved its class exactly once: the split preserved the
	// node-side in-batch dedup (4 items, 2 classes, 2 solves fleetwide).
	if got := metricValue(t, dump, "cluster_rbserve_solves_total"); got != 2 {
		t.Fatalf("cluster solves_total = %d, want 2", got)
	}
}

// TestProxyBatchFailover: a dead node's sub-batch fails over to the
// surviving member instead of erroring its items.
func TestProxyBatchFailover(t *testing.T) {
	tc := newTestCluster(t, 2)
	a, b := splitPair(t, tc)
	// Kill whichever node owns b's class.
	dead := batchOwner(t, tc, b)
	for i, m := range tc.members {
		if m == dead {
			tc.nodeTS[i].Close()
		}
	}
	body := fmt.Sprintf(`{"items":[{"dag":%s,"model":"oneshot","r":3},{"dag":%s,"model":"oneshot","r":3}],"deadline_ms":2000}`,
		dagJSON(t, a), dagJSON(t, b))
	code, br, _ := tc.postBatch(t, body, "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, br)
	}
	for i, item := range br.Items {
		if item.Error != "" || item.Result == nil || !item.Result.Optimal {
			t.Fatalf("item %d after failover: %+v", i, item)
		}
	}
}

// TestProxyTenantQuota: per-tenant token buckets gate admission by
// item count, isolate tenants from each other, and stamp Retry-After.
func TestProxyTenantQuota(t *testing.T) {
	tc := newTestCluster(t, 1)
	// Rebuild the proxy with quotas on (newTestCluster uses defaults).
	tc.ts.Close()
	tc.proxy.Close()
	tc.proxy = NewProxy(ProxyConfig{
		Members: tc.members, ProbeInterval: -1,
		TenantRate: 0.001, TenantBurst: 4,
	})
	tc.ts = httptest.NewServer(tc.proxy.Handler())
	defer tc.ts.Close()
	defer tc.proxy.Close()

	g := daggen.Pyramid(4)
	item := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, g))
	over := fmt.Sprintf(`{"items":[%s,%s,%s,%s,%s],"deadline_ms":2000}`, item, item, item, item, item)
	code, _, retry := tc.postBatch(t, over, "alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("5-item batch over burst 4: status %d, want 429", code)
	}
	if retry == "" {
		t.Fatal("quota rejection missing Retry-After")
	}

	within := fmt.Sprintf(`{"items":[%s,%s,%s],"deadline_ms":2000}`, item, item, item)
	if code, br, _ := tc.postBatch(t, within, "alice"); code != http.StatusOK || br.Summary.OK != 3 {
		t.Fatalf("3-item batch within burst: status %d, %+v", code, br)
	}
	// alice has ~1 token left at a negligible refill rate: her single
	// solve still passes, the next is rejected.
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":2000}`, dagJSON(t, g))
	if code := tc.postSolveTenant(t, body, "alice"); code != http.StatusOK {
		t.Fatalf("alice's last token: status %d", code)
	}
	if code := tc.postSolveTenant(t, body, "alice"); code != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: status %d, want 429", code)
	}
	// bob's bucket is untouched.
	if code, br, _ := tc.postBatch(t, within, "bob"); code != http.StatusOK || br.Summary.OK != 3 {
		t.Fatalf("bob within burst: status %d, %+v", code, br)
	}
	dump := tc.metrics(t)
	if got := metricValue(t, dump, "rbproxy_quota_rejected_total"); got != 2 {
		t.Fatalf("quota_rejected_total = %d, want 2", got)
	}
}

func (tc *testCluster) postSolveTenant(t *testing.T, body, tenant string) int {
	t.Helper()
	req, err := http.NewRequest("POST", tc.ts.URL+"/solve", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// TestClusterMetricsPreserveLabels: the fleet merge keeps histogram le
// buckets and per-lane queue-depth labels instead of summing them into
// a single meaningless scalar, and parses fractional values.
func TestClusterMetricsPreserveLabels(t *testing.T) {
	tc := newTestCluster(t, 2)
	g := daggen.Pyramid(4)
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, g))
	if code, _, _ := tc.post(t, body); code != http.StatusOK {
		t.Fatal("solve failed")
	}
	dump := tc.metrics(t)
	if got := metricValue(t, dump, `cluster_rbserve_request_seconds_bucket{le="+Inf"}`); got < 1 {
		t.Fatalf("histogram bucket lost in merge: %d", got)
	}
	metricValue(t, dump, `cluster_rbserve_queue_depth{lane="fast"}`)
	metricValue(t, dump, `cluster_rbserve_queue_depth{lane="heavy"}`)
	if !strings.Contains(dump, "cluster_rbserve_request_seconds_sum ") {
		t.Fatalf("histogram sum missing from merge:\n%s", dump)
	}
}

// TestQuotaTake exercises the token bucket directly.
func TestQuotaTake(t *testing.T) {
	q := NewTenantQuota(0.001, 5) // refill is negligible within the test
	if ok, _ := q.Take("t", 5); !ok {
		t.Fatal("full burst refused")
	}
	ok, retry := q.Take("t", 1)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry <= 0 {
		t.Fatalf("retry hint %v, want > 0", retry)
	}
	if ok, _ := q.Take("other", 3); !ok {
		t.Fatal("tenants not isolated")
	}
	// Wider than burst: can never succeed, and the hint reflects the
	// full mint time.
	if ok, retry := q.Take("fresh", 6); ok || retry < 5900*time.Second {
		t.Fatalf("over-burst take: ok=%v retry=%v", ok, retry)
	}
	// Tenant names are client input: buckets that have refilled to
	// burst admit exactly like missing ones and are dropped, so a
	// stream of distinct names cannot pile buckets up.
	fast := NewTenantQuota(1e9, 1) // a drawn token is back within a nanosecond
	for round := 0; round < 2; round++ {
		for i := 0; i < 10000; i++ {
			if ok, _ := fast.Take(fmt.Sprintf("tenant-%d-%d", round, i), 1); !ok {
				t.Fatal("fresh tenant refused")
			}
		}
		time.Sleep(10 * time.Millisecond) // every bucket so far has refilled
	}
	if n := len(fast.buckets); n > 10000 {
		t.Fatalf("%d tenant buckets kept for 20000 distinct names; the first 10000 had refilled", n)
	}
	// Disabled limiter admits everything.
	if ok, _ := NewTenantQuota(0, 0).Take("t", 1000); !ok {
		t.Fatal("disabled limiter refused")
	}
}
