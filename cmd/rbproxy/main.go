// Command rbproxy is the cluster front end for a fleet of rbserve
// replicas: it routes each POST /solve to the node that owns the
// request's canonical instance key by rendezvous hashing (so repeated
// and isomorphic submissions of an instance warm the same node's
// interval cache), fails over to the key's next owner when a node dies
// or drains, fans async-job polls out across the fleet, and merges the
// nodes' /metrics and /healthz into cluster-level views.
//
// Membership is dynamic: nodes started with -join register themselves
// on POST /cluster/join and renew a TTL lease; nodes that stop renewing
// expire out of the member table. -members seeds static members that
// never expire (for fixed fleets without the join flow). On drain,
// departing nodes hand their cache off through POST /cluster/handoff,
// and live nodes replicate fresh entries via POST /cluster/replicate.
//
// Every request is traced (X-Rbpebble-Trace, minted here or adopted
// from the client) and the ID rides every proxy->node forward, so one
// trace correlates the proxy's routing/failover spans with the serving
// node's solve spans. GET /debug/solves merges the fleet's telemetry
// rings; GET /debug/trace/{id} resolves a trace anywhere in the fleet.
//
// Usage:
//
//	rbproxy -addr :8080 &
//	rbserve -addr :8081 -join 127.0.0.1:8080 &
//	rbserve -addr :8082 -join 127.0.0.1:8080 &
//	curl -s -X POST localhost:8080/solve -d '{
//	    "dag": {"nodes": 3, "edges": [[0,2],[1,2]]},
//	    "model": "oneshot", "r": 3, "deadline_ms": 1000}'
//	curl -s localhost:8080/healthz     # per-node cluster view
//	curl -s localhost:8080/metrics     # cluster_* + rbserve aggregates
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rbpebble/internal/cluster"
	"rbpebble/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		members     = flag.String("members", "", "comma-separated static rbserve replicas (host:port); optional when nodes use -join")
		probe       = flag.Duration("probe", 2*time.Second, "member health-probe interval")
		ttl         = flag.Duration("ttl", 15*time.Second, "membership lease TTL for joined nodes")
		maxBody     = flag.Int64("max-body", 64<<20, "largest accepted request body in bytes")
		maxNodes    = flag.Int("max-nodes", 100000, "largest accepted instance (guards the routing parse)")
		fwdLimit    = flag.Duration("forward-timeout", 60*time.Second, "per-attempt forward timeout (must exceed the nodes' max solve deadline)")
		retries     = flag.Int("retries", 3, "max attempts per idempotent forward (comm layer)")
		backoff     = flag.Duration("backoff", 50*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
		brkFails    = flag.Int("breaker-fails", 4, "consecutive transport failures that open a node's circuit breaker")
		brkCool     = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker fails fast before a half-open trial")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant admission rate in solve items/second (0 = quotas disabled; tenant = X-Rbpebble-Tenant header)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst in solve items (0 = one second's worth of -tenant-rate)")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		pprofAddr   = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled)")
		traceCap    = flag.Int("trace-cap", 0, "retained routing traces for /debug/trace (0 = default 256)")
	)
	flag.Parse()

	logger := obs.NewLogger(*logFormat, os.Stderr)
	slog.SetDefault(logger)

	var memberList []string
	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			memberList = append(memberList, m)
		}
	}

	p := cluster.NewProxy(cluster.ProxyConfig{
		Members:       memberList,
		ProbeInterval: *probe,
		MemberTTL:     *ttl,
		MaxBodyBytes:  *maxBody,
		MaxNodes:      *maxNodes,
		TenantRate:    *tenantRate,
		TenantBurst:   *tenantBurst,
		TraceCap:      *traceCap,
		Logger:        logger,
		Comm: cluster.CommConfig{
			AttemptTimeout:   *fwdLimit,
			MaxAttempts:      *retries,
			BackoffBase:      *backoff,
			BreakerThreshold: *brkFails,
			BreakerCooldown:  *brkCool,
		},
	})
	defer p.Close()
	srv := &http.Server{Addr: *addr, Handler: obs.AccessLog(logger, p.Handler())}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("rbproxy: listening",
		slog.String("addr", *addr), slog.Int("static_members", len(memberList)),
		slog.Duration("probe", *probe), slog.Duration("ttl", *ttl))

	if *pprofAddr != "" {
		go func() {
			logger.Info("rbproxy: pprof listening", slog.String("addr", *pprofAddr))
			if err := http.ListenAndServe(*pprofAddr, obs.PprofMux()); err != nil {
				logger.Warn("rbproxy: pprof listener failed", slog.Any("err", err))
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "rbproxy:", err)
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("rbproxy: shutting down", slog.String("signal", sig.String()))
		srv.Close()
	}
}
