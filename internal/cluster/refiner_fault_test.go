package cluster

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/instcache"
	"rbpebble/internal/service"
)

// startRefinerNode is startNode with the background refiner enabled:
// a fast scan cadence for test latency, and the ownership filter wired
// through the agent's member mirror exactly as cmd/rbserve does.
func startRefinerNode(t *testing.T, addr, proxyAddr string) *elasticNode {
	t.Helper()
	n := &elasticNode{}
	n.svc = service.New(service.Config{
		RefinerInterval: 100 * time.Millisecond,
		Replicate: func(e instcache.Entry) {
			if a := n.agentPtr.Load(); a != nil {
				a.Replicate(e)
			}
		},
		RefinerOwns: func(key string) bool {
			if a := n.agentPtr.Load(); a != nil {
				return a.Owns(key)
			}
			return true
		},
	})
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

// TestFaultHardKillMidRefinement: the owner of a wide cached
// interval is hard-killed while its background refiner is re-solving
// the key. Nothing certified may be lost: the surviving replica still
// serves an interval no wider than the pre-crash response, and once
// the dead node's lease expires the survivor — now the key's
// owner — picks the refinement up itself, with no new request beyond
// the failover read.
func TestFaultHardKillMidRefinement(t *testing.T) {
	ec := newElasticCluster(t, 0)
	for i := 0; i < 2; i++ {
		ec.nodes = append(ec.nodes, startRefinerNode(t, "127.0.0.1:0", ec.proxyAddr))
	}
	ec.waitFor(t, 5*time.Second, func() bool {
		return ec.proxy.Membership().Size() == 2
	}, "both refiner nodes joined")

	// Seed a deliberately wide certified interval on the owner: fft(3)
	// R=3 in nodel, which serial A* needs seconds to close.
	body := fmt.Sprintf(`{"dag":%s,"model":"nodel","r":3,"deadline_ms":120}`, dagJSON(t, daggen.FFT(3)))
	code, first, owner := ec.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("seed solve: code=%d", code)
	}
	if first.Optimal {
		t.Skip("host closed fft(3) nodel R=3 in 120ms; refinement not observable")
	}
	victim, survivor := ec.node(t, owner)

	// The seed entry replicates to the survivor on store; wait for it so
	// the crash below cannot lose the interval.
	ec.waitFor(t, 5*time.Second, func() bool {
		return len(survivor.svc.ExportCache()) >= 1
	}, "seed interval replicated to the survivor")

	// Wait for the victim's refiner to be mid-refinement on the key —
	// the crash window under test.
	ec.waitFor(t, 10*time.Second, func() bool {
		st, ok := victim.svc.RefinerStatus()
		return ok && st.CurrentKey != ""
	}, "victim refiner mid-refinement")

	victim.hardKill()

	// Failover read: the replica serves, and certified knowledge only
	// ever tightens — never wider than what the victim already proved.
	code, after, node := ec.post(t, body)
	if code != http.StatusOK {
		t.Fatalf("post-crash solve: code=%d", code)
	}
	if node != survivor.addr {
		t.Fatalf("post-crash request served by %s, want survivor %s", node, survivor.addr)
	}
	if after.Upper > first.Upper || after.Lower < first.Lower {
		t.Fatalf("post-crash interval [%v, %v] wider than pre-crash [%v, %v]",
			after.Lower, after.Upper, first.Lower, first.Upper)
	}

	// The dead node's lease lapses; the survivor becomes the key's
	// owner and its own refiner picks the key up with no further
	// traffic.
	ec.waitFor(t, 5*time.Second, func() bool {
		return ec.proxy.Membership().Size() == 1
	}, "dead node expired out of the member table")
	ec.waitFor(t, 15*time.Second, func() bool {
		st, ok := survivor.svc.RefinerStatus()
		return ok && st.Runs >= 1
	}, "survivor refiner picked up the orphaned key")
}
