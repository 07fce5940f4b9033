package cluster

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/instcache"
)

// AgentConfig tunes a node-side membership Agent.
type AgentConfig struct {
	// Proxy is the rbproxy address (host:port) running the membership
	// API.
	Proxy string
	// Self is the address this node advertises: the host:port other
	// cluster participants reach it at.
	Self string
	// Export snapshots this node's cache for the drain handoff
	// (typically service.Server.ExportCache).
	Export func() []instcache.Entry
	// Logf, when set, receives agent lifecycle logs.
	Logf func(format string, args ...any)

	// Test seams; the zero values select the defaults. comm performs
	// the agent's calls (default: a fresh CommClient with 5s attempt
	// timeouts — membership traffic is small and latency-sensitive).
	// rejoinInterval is the heartbeat cadence before the first
	// successful join reports the real lease (default 2s); after a
	// successful join the agent renews at TTL/3.
	comm           *CommClient
	rejoinInterval time.Duration
}

// Agent is the rbserve side of dynamic membership: it registers the
// node with the proxy, renews the lease on a heartbeat (TTL/3), flags
// the drain during SIGTERM, pushes the cache export to the proxy for
// handoff, replicates freshly stored entries, and says goodbye with
// /cluster/leave. Create with NewAgent, stop with Stop.
type Agent struct {
	cfg      AgentConfig
	comm     *CommClient
	draining atomic.Bool

	stop chan struct{}
	kick chan struct{} // forces an immediate heartbeat (drain announcement)
	wg   sync.WaitGroup
	once sync.Once
}

// NewAgent returns a started Agent (heartbeat loop runs until Stop).
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.comm == nil {
		cfg.comm = NewComm(CommConfig{AttemptTimeout: 5 * time.Second})
	}
	if cfg.rejoinInterval <= 0 {
		cfg.rejoinInterval = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	a := &Agent{cfg: cfg, comm: cfg.comm, stop: make(chan struct{}), kick: make(chan struct{}, 1)}
	a.wg.Add(1)
	go a.loop()
	return a
}

func (a *Agent) loop() {
	defer a.wg.Done()
	interval := a.cfg.rejoinInterval
	for {
		if ttl, err := a.join(context.Background()); err != nil {
			a.cfg.Logf("cluster agent: join %s: %v", a.cfg.Proxy, err)
			interval = a.cfg.rejoinInterval
		} else if ttl > 0 {
			interval = ttl / 3
		}
		t := time.NewTimer(interval)
		select {
		case <-a.stop:
			t.Stop()
			return
		case <-a.kick:
			t.Stop()
		case <-t.C:
		}
	}
}

// join registers/renews once and returns the proxy's lease TTL.
func (a *Agent) join(ctx context.Context) (time.Duration, error) {
	var jr JoinResponse
	in := joinRequest{Member: a.cfg.Self, Draining: a.draining.Load()}
	if err := a.comm.Call(ctx, a.cfg.Proxy, http.MethodPost, "/cluster/join", in, &jr); err != nil {
		return 0, err
	}
	return time.Duration(jr.TTLMS) * time.Millisecond, nil
}

// SetDraining flips the drain flag and fires an immediate heartbeat so
// the proxy learns about the drain now, not at the next renewal or
// probe.
func (a *Agent) SetDraining(d bool) {
	a.draining.Store(d)
	select {
	case a.kick <- struct{}{}:
	default:
	}
}

// Handoff exports this node's cache and pushes it to the proxy, which
// routes every entry to the owner that will serve its key after
// this node is gone. Returns the number of entries sent.
func (a *Agent) Handoff(ctx context.Context) (int, error) {
	if a.cfg.Export == nil {
		return 0, nil
	}
	entries := a.cfg.Export()
	if len(entries) == 0 {
		return 0, nil
	}
	in := ImportPayload{From: a.cfg.Self, Entries: entries}
	if err := a.comm.Call(ctx, a.cfg.Proxy, http.MethodPost, "/cluster/handoff", in, nil); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// Replicate asynchronously pushes one freshly stored cache entry to
// the proxy, which forwards it to the key's next owner — the
// crash-safety path for proven-optimal (and tightened-interval)
// entries. Fire-and-forget: replication is an optimization, never a
// dependency of the serving path.
func (a *Agent) Replicate(e instcache.Entry) {
	select {
	case <-a.stop:
		return // agent stopped: drop silently
	default:
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		in := ImportPayload{From: a.cfg.Self, Entries: []instcache.Entry{e}}
		if err := a.comm.Call(ctx, a.cfg.Proxy, http.MethodPost, "/cluster/replicate", in, nil); err != nil {
			a.cfg.Logf("cluster agent: replicate: %v", err)
		}
	}()
}

// Leave deregisters the node (the final step of a graceful shutdown,
// after the handoff). A refused goodbye is an error.
func (a *Agent) Leave(ctx context.Context) error {
	return a.comm.Call(ctx, a.cfg.Proxy, http.MethodPost, "/cluster/leave", joinRequest{Member: a.cfg.Self}, nil)
}

// Stop ends the heartbeat loop and waits for in-flight replications.
func (a *Agent) Stop() {
	a.once.Do(func() { close(a.stop) })
	a.wg.Wait()
}
