package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/instcache"
	"rbpebble/internal/service"
)

// elasticNode is an rbserve node on a REAL listener (so it can be
// hard-killed and restarted on the same address), joined to a proxy
// through a membership agent — the in-process equivalent of
// `rbserve -join`.
type elasticNode struct {
	addr     string
	svc      *service.Server
	srv      *http.Server
	agent    *Agent
	agentPtr atomic.Pointer[Agent]
}

// startNode boots a node listening on addr ("127.0.0.1:0" for a fresh
// port, or a previous node's addr to simulate a restart) and joins it
// to the proxy at proxyAddr.
func startNode(t *testing.T, addr, proxyAddr string) *elasticNode {
	t.Helper()
	n := &elasticNode{}
	n.svc = service.New(service.Config{Replicate: func(e instcache.Entry) {
		if a := n.agentPtr.Load(); a != nil {
			a.Replicate(e)
		}
	}})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	n.addr = ln.Addr().String()
	n.srv = &http.Server{Handler: n.svc.Handler()}
	go n.srv.Serve(ln)
	n.agent = NewAgent(AgentConfig{
		Proxy:          proxyAddr,
		Self:           n.addr,
		Export:         n.svc.ExportCache,
		rejoinInterval: 50 * time.Millisecond,
		comm:           NewComm(CommConfig{AttemptTimeout: 5 * time.Second, maxAttempts: 2, backoffBase: 10 * time.Millisecond}),
	})
	n.agentPtr.Store(n.agent)
	return n
}

// hardKill simulates a crash: connections die mid-flight, heartbeats
// stop, no drain, no handoff, no goodbye.
func (n *elasticNode) hardKill() {
	n.agent.Stop()
	n.srv.Close()
	n.svc.Close()
}

// drain runs the full graceful SIGTERM sequence: fail healthz + flag
// the drain, quiesce HTTP and workers (partial intervals land in the
// cache), hand the cache off, leave, stop.
func (n *elasticNode) drain(t *testing.T) {
	t.Helper()
	n.svc.Drain()
	n.agent.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	n.svc.ShutdownWithin(2 * time.Second)
	if _, err := n.agent.Handoff(ctx); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if err := n.agent.Leave(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	n.agent.Stop()
}

// elasticCluster is a live-probing, lease-sweeping proxy plus n
// dynamically joined nodes.
type elasticCluster struct {
	proxy     *Proxy
	ts        *httptest.Server
	proxyAddr string
	nodes     []*elasticNode
}

func newElasticCluster(t *testing.T, n int) *elasticCluster {
	t.Helper()
	ec := &elasticCluster{}
	ec.proxy = NewProxy(ProxyConfig{
		ProbeInterval: 50 * time.Millisecond,
		MemberTTL:     time.Second,
		Comm: CommConfig{
			AttemptTimeout:   10 * time.Second,
			maxAttempts:      2,
			backoffBase:      5 * time.Millisecond,
			breakerThreshold: 3,
			breakerCooldown:  250 * time.Millisecond,
		},
	})
	ec.ts = httptest.NewServer(ec.proxy.Handler())
	ec.proxyAddr = strings.TrimPrefix(ec.ts.URL, "http://")
	for i := 0; i < n; i++ {
		ec.nodes = append(ec.nodes, startNode(t, "127.0.0.1:0", ec.proxyAddr))
	}
	t.Cleanup(func() {
		ec.ts.Close()
		ec.proxy.Close()
	})
	ec.waitFor(t, 5*time.Second, func() bool {
		if ec.proxy.Membership().Size() != n {
			return false
		}
		for _, v := range ec.proxy.Membership().View() {
			if !v.Healthy {
				return false
			}
		}
		return true
	}, "all nodes joined and healthy")
	return ec
}

func (ec *elasticCluster) waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func (ec *elasticCluster) post(t *testing.T, body string) (int, service.SolveResponse, string) {
	t.Helper()
	resp, err := http.Post(ec.ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr service.SolveResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr, resp.Header.Get("X-Rbproxy-Node")
}

// node returns the cluster node at addr, plus any one OTHER live node.
func (ec *elasticCluster) node(t *testing.T, addr string) (at *elasticNode, other *elasticNode) {
	t.Helper()
	for _, n := range ec.nodes {
		if n.addr == addr {
			at = n
		} else if other == nil {
			other = n
		}
	}
	if at == nil {
		t.Fatalf("no cluster node at %s", addr)
	}
	return at, other
}

func (ec *elasticCluster) proxyMetric(t *testing.T, name string) int {
	t.Helper()
	resp, err := http.Get(ec.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		k, err := resp.Body.Read(buf)
		sb.Write(buf[:k])
		if err != nil {
			break
		}
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		var v int
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, sb.String())
	return 0
}

// TestFaultReplicationSurvivesHardKill: a proven optimum is replicated
// to the key's next owner on store, so a hard crash of the owner
// — no drain, no handoff — still leaves the entry servable: the
// retried request fails over and is a cache hit on the replica.
func TestFaultReplicationSurvivesHardKill(t *testing.T) {
	ec := newElasticCluster(t, 2)
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(4)))

	code, sr, owner := ec.post(t, body)
	if code != http.StatusOK || !sr.Optimal {
		t.Fatalf("seed solve: code=%d sr=%+v", code, sr)
	}
	victim, survivor := ec.node(t, owner)

	// Replication is asynchronous: wait for the optimum to land on the
	// surviving replica before crashing the owner.
	ec.waitFor(t, 5*time.Second, func() bool {
		return len(survivor.svc.ExportCache()) >= 1
	}, "optimum replicated to the survivor")
	if got := ec.proxyMetric(t, "cluster_replicated_entries_total"); got < 1 {
		t.Fatalf("cluster_replicated_entries_total = %d, want >= 1", got)
	}

	victim.hardKill()
	code, sr, node := ec.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("post-crash solve: code=%d", code)
	}
	if node != survivor.addr {
		t.Fatalf("post-crash request served by %s, want survivor %s", node, survivor.addr)
	}
	if !sr.Cached || !sr.Optimal {
		t.Fatalf("replica should serve the replicated optimum as a hit: %+v", sr)
	}

	// With heartbeats stopped, the lease lapses and the dead node is
	// expired out of the member table entirely.
	ec.waitFor(t, 5*time.Second, func() bool {
		return ec.proxy.Membership().Size() == 1
	}, "dead node expired out of the member table")
}

// TestFaultDrainHandoffWarmStart: a draining node hands its certified
// intervals to the keys' next owners, so the next request for a handed-off
// key warm-starts refinement on the successor — interval no wider —
// instead of searching from scratch.
func TestFaultDrainHandoffWarmStart(t *testing.T) {
	ec := newElasticCluster(t, 2)
	// fft(4) R=3 oneshot stays open for about 100 s under serial A*.
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":120}`, dagJSON(t, daggen.FFT(4)))

	code, first, owner := ec.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("seed solve: code=%d", code)
	}
	if first.Optimal {
		t.Skip("host closed fft(4) R=3 in 120ms; handoff warm-start not observable")
	}
	victim, survivor := ec.node(t, owner)

	victim.drain(t)
	if got := ec.proxyMetric(t, "cluster_handoff_entries_total"); got < 1 {
		t.Fatalf("cluster_handoff_entries_total = %d, want >= 1", got)
	}
	ec.waitFor(t, 5*time.Second, func() bool {
		return ec.proxy.Membership().Size() == 1
	}, "drained node left the cluster")

	code, second, node := ec.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("post-drain solve: code=%d", code)
	}
	if node != survivor.addr {
		t.Fatalf("post-drain request served by %s, want survivor %s", node, survivor.addr)
	}
	if !second.Warmed && !second.Cached {
		t.Fatalf("successor did not use the handed-off interval: %+v", second)
	}
	if second.Upper > first.Upper || second.Lower < first.Lower {
		t.Fatalf("interval widened across the handoff: first [%v, %v], second [%v, %v]",
			first.Lower, first.Upper, second.Lower, second.Upper)
	}
}

// TestFaultKillMidAsyncSolveAndRejoin is the end-to-end fleet drill:
// an async solve dies with its node mid-flight; the retried request
// fails over to the next owner and warm-starts from the interval that
// replication had already pushed to the survivor; the crashed node
// then restarts on the same address, re-joins, and serves its keyspace
// again.
func TestFaultKillMidAsyncSolveAndRejoin(t *testing.T) {
	ec := newElasticCluster(t, 2)
	g := dagJSON(t, daggen.FFT(4))

	// Seed a certified interval for the instance (fft(4) R=3 oneshot,
	// open for about 100 s under serial A*) and let replication copy it
	// to the survivor.
	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":120}`, g)
	code, first, owner := ec.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("seed solve: code=%d", code)
	}
	if first.Optimal {
		t.Skip("host closed fft(4) R=3 in 120ms; warm-start not observable")
	}
	victim, survivor := ec.node(t, owner)
	ec.waitFor(t, 5*time.Second, func() bool {
		return len(survivor.svc.ExportCache()) >= 1
	}, "interval replicated to the survivor")

	// Kill the owner mid-async-solve: the job dies with it. The kill
	// waits for the node's in-flight solve, so the job's budget is kept
	// short.
	async := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"deadline_ms":1000,"async":true}`, g)
	resp, err := http.Post(ec.ts.URL+"/solve", "application/json", strings.NewReader(async))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("async submit: code=%d id=%q", resp.StatusCode, job.ID)
	}
	victim.hardKill()

	// The job is gone — polls fan out to the survivors and find nothing.
	ec.waitFor(t, 5*time.Second, func() bool {
		pr, err := http.Get(ec.ts.URL + "/solve/" + job.ID)
		if err != nil {
			return false
		}
		defer pr.Body.Close()
		return pr.StatusCode == http.StatusNotFound
	}, "lost job reported unknown")

	// The retried request fails over to the survivor and warm-starts
	// from the replicated interval instead of searching cold.
	code, retried, node := ec.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("retried solve: code=%d", code)
	}
	if node != survivor.addr {
		t.Fatalf("retried request served by %s, want survivor %s", node, survivor.addr)
	}
	if !retried.Warmed && !retried.Cached {
		t.Fatalf("retried request did not warm-start from the replica: %+v", retried)
	}
	if retried.Upper > first.Upper || retried.Lower < first.Lower {
		t.Fatalf("interval widened across the crash: first [%v, %v], retried [%v, %v]",
			first.Lower, first.Upper, retried.Lower, retried.Upper)
	}

	// Restart the crashed node on its old address: it re-joins, is
	// probed healthy, and takes its keyspace back.
	restarted := startNode(t, victim.addr, ec.proxyAddr)
	defer restarted.hardKill()
	ec.waitFor(t, 5*time.Second, func() bool {
		return ec.proxy.Membership().Size() == 2 && healthy(ec.proxy.Membership(), restarted.addr)
	}, "restarted node re-joined and probed healthy")
	code, _, node = ec.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("post-restart solve: code=%d", code)
	}
	if node != restarted.addr {
		t.Fatalf("post-restart request served by %s, want the re-joined owner %s", node, restarted.addr)
	}
}
