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
// Every proxy->node call retries up to 3 attempts with jittered
// exponential backoff (50 ms doubling, capped at 2 s), and a node's
// circuit breaker opens after 4 consecutive transport failures for 5 s.
// That policy and the 256-trace routing ring are fixed; the flags,
// which default to cluster.DefaultProxyConfig(), set addresses, limits
// on outside input, membership timing, the forward timeout and tenant
// quotas.
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

	"rbpebble/internal/cluster"
	"rbpebble/internal/obs"
)

func main() {
	// Every flag that tunes the library starts from the library's own
	// default, so the help text and the proxy agree with
	// cluster.ProxyConfig{}.
	cfg := cluster.DefaultProxyConfig()
	flag.DurationVar(&cfg.ProbeInterval, "probe", cfg.ProbeInterval, "member health-probe interval")
	flag.DurationVar(&cfg.MemberTTL, "ttl", cfg.MemberTTL, "membership lease TTL for joined nodes")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", cfg.MaxBodyBytes, "largest accepted request body in bytes")
	flag.IntVar(&cfg.MaxNodes, "max-nodes", cfg.MaxNodes, "largest accepted instance (guards the routing parse)")
	flag.DurationVar(&cfg.Comm.AttemptTimeout, "forward-timeout", cfg.Comm.AttemptTimeout, "per-attempt forward timeout (must exceed the nodes' max solve deadline)")
	flag.Float64Var(&cfg.TenantRate, "tenant-rate", cfg.TenantRate, "per-tenant admission rate in solve items/second (0 = quotas disabled; tenant = X-Rbpebble-Tenant header)")
	flag.IntVar(&cfg.TenantBurst, "tenant-burst", cfg.TenantBurst, "per-tenant token-bucket burst in solve items (0 = one second's worth of -tenant-rate)")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		members   = flag.String("members", "", "comma-separated static rbserve replicas (host:port); optional when nodes use -join")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		pprofAddr = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled)")
	)
	flag.Parse()

	logger := obs.NewLogger(*logFormat, os.Stderr)
	slog.SetDefault(logger)
	cfg.Logger = logger

	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			cfg.Members = append(cfg.Members, m)
		}
	}

	p := cluster.NewProxy(cfg)
	defer p.Close()
	srv := &http.Server{Addr: *addr, Handler: obs.AccessLog(logger, p.Handler())}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("rbproxy: listening",
		slog.String("addr", *addr), slog.Int("static_members", len(cfg.Members)),
		slog.Duration("probe", cfg.ProbeInterval), slog.Duration("ttl", cfg.MemberTTL))

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
