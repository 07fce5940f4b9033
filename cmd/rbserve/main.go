// Command rbserve serves red-blue pebbling solves over HTTP: a JSON API
// backed by the anytime orchestrator, a canonical instance cache with
// singleflight deduplication, and one two-lane scheduler for sync, async
// and batched solves alike: cache-served work and work whose budget is
// at most 150 ms run on the fast lane, exact solves on the heavy lane,
// so -heavy-workers bounds the node's concurrent exact solves.
//
// The flags set addresses and paths, limits on outside input, host
// capacity and request and lifecycle settings; each defaults to
// service.DefaultConfig(). The rest of a node's shape is fixed: lane
// queues of 256 (fast) and 64 (heavy) units, a batch canonicalization
// pool of GOMAXPROCS goroutines, and the 256 newest traces and 512
// newest solve records retained for the debug endpoints.
//
// Usage:
//
//	rbserve -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/solve -d '{
//	    "dag": {"nodes": 3, "edges": [[0,2],[1,2]]},
//	    "model": "oneshot", "r": 3, "deadline_ms": 1000}'
//	curl -s localhost:8080/metrics
//
// Hard instances return a certified [lower, upper] interval when the
// deadline fires; repeated and concurrent identical instances (under
// any node numbering) share one solve through the cache.
//
// Every request is traced end to end (X-Rbpebble-Trace): span trees are
// served from GET /debug/trace/{id} and per-solve telemetry records from
// GET /debug/solves. Running async jobs additionally expose live engine
// introspection on GET /debug/jobs/{id}/search and per-job search gauges
// on /metrics. -event-log appends the node's event log as JSONL: one
// "solve" row per telemetry record (for offline scheduler training) and
// one "snapshot" row per sampled engine snapshot, each with its trace
// ID; -log-max-bytes rotates it. -pprof-addr exposes net/http/pprof on a
// separate listener.
//
// With -join, the node registers itself with an rbproxy's membership
// API, heartbeats its lease, replicates freshly stored cache entries to
// each key's next owner, and on SIGTERM hands its cache off before
// leaving:
//
//	rbserve -addr :8081 -join 127.0.0.1:8080
//
// -mem-budget caps per-solve table memory: over-budget solves abort
// with a certified partial interval instead of swelling the heap.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rbpebble/internal/cluster"
	"rbpebble/internal/instcache"
	"rbpebble/internal/obs"
	"rbpebble/internal/service"
)

func main() {
	// Every flag that tunes the library starts from the library's own
	// default, so the help text and the node agree with service.Config{}.
	cfg := service.DefaultConfig()
	flag.IntVar(&cfg.CacheSize, "cache", cfg.CacheSize, "solution cache entries (LRU)")
	flag.DurationVar(&cfg.DefaultDeadline, "deadline", cfg.DefaultDeadline, "default per-request solve budget")
	flag.DurationVar(&cfg.MaxDeadline, "max-deadline", cfg.MaxDeadline, "largest accepted per-request budget")
	flag.IntVar(&cfg.MaxNodes, "max-nodes", cfg.MaxNodes, "largest accepted instance")
	flag.DurationVar(&cfg.GracePeriod, "grace", cfg.GracePeriod, "graceful-shutdown window for in-flight solves on SIGTERM")
	flag.IntVar(&cfg.MaxBatchItems, "batch-items", cfg.MaxBatchItems, "largest accepted POST /solve/batch item count")
	flag.IntVar(&cfg.FastLaneWorkers, "fast-workers", cfg.FastLaneWorkers, "fast-lane workers (cache-served and sub-budget solves)")
	flag.IntVar(&cfg.HeavyLaneWorkers, "heavy-workers", cfg.HeavyLaneWorkers, "heavy-lane workers: the node's concurrent exact solves, sync and async")
	flag.Int64Var(&cfg.MaxTableBytes, "mem-budget", cfg.MaxTableBytes, "per-solve visited-table memory budget in bytes (0 = unlimited); solves over budget abort with a certified partial interval")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		join        = flag.String("join", "", "rbproxy address (host:port) to register with for dynamic membership")
		advertise   = flag.String("advertise", "", "address other cluster members reach this node at (default: 127.0.0.1 + -addr port)")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		pprofAddr   = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled)")
		eventLog    = flag.String("event-log", "", "append solve records and live search-engine snapshots as JSONL to this file")
		logMaxBytes = flag.Int64("log-max-bytes", 0, "rotate the -event-log file at this size (0 = never rotate)")
		logKeep     = flag.Int("log-keep", 3, "rotated generations of the -event-log file to keep")
	)
	flag.Parse()

	logger := obs.NewLogger(*logFormat, os.Stderr)
	slog.SetDefault(logger)
	cfg.Logger = logger

	// The event log appends forever by default; -log-max-bytes rotates
	// it so a long-lived node's telemetry cannot fill the disk.
	if *eventLog != "" {
		w, err := obs.NewRotatingWriter(*eventLog, *logMaxBytes, *logKeep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbserve: event-log: %v\n", err)
			os.Exit(1)
		}
		defer w.Close()
		cfg.EventSink = w
	}

	// The agent pointer is set only in -join mode, after the server
	// exists; the Replicate hook must tolerate both windows.
	var agentPtr atomic.Pointer[cluster.Agent]
	cfg.Replicate = func(e instcache.Entry) {
		if a := agentPtr.Load(); a != nil {
			a.Replicate(e)
		}
	}

	s := service.New(cfg)
	srv := &http.Server{Addr: *addr, Handler: obs.AccessLog(logger, s.Handler())}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("rbserve: listening",
		slog.String("addr", *addr), slog.Duration("deadline", cfg.DefaultDeadline),
		slog.Int("cache", cfg.CacheSize), slog.Int("heavy_workers", cfg.HeavyLaneWorkers))

	if *pprofAddr != "" {
		// pprof lives on its own listener and mux so profiling stays off
		// the public API surface (and off the proxy's routing paths).
		go func() {
			logger.Info("rbserve: pprof listening", slog.String("addr", *pprofAddr))
			if err := http.ListenAndServe(*pprofAddr, obs.PprofMux()); err != nil {
				logger.Warn("rbserve: pprof listener failed", slog.Any("err", err))
			}
		}()
	}

	if *join != "" {
		self := *advertise
		if self == "" {
			if strings.HasPrefix(*addr, ":") {
				self = "127.0.0.1" + *addr
			} else {
				self = *addr
			}
		}
		agentPtr.Store(cluster.NewAgent(cluster.AgentConfig{
			Proxy:  *join,
			Self:   self,
			Export: s.ExportCache,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		}))
		logger.Info("rbserve: joining cluster", slog.String("proxy", *join), slog.String("self", self))
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "rbserve:", err)
		os.Exit(1)
	case sig := <-sigc:
		// Graceful node lifecycle: fail /healthz FIRST (and announce the
		// drain to the proxy immediately, if joined) so routing stops
		// sending work here, then let in-flight HTTP requests and async
		// jobs finish within the grace window — solves still running at
		// its end are canceled cooperatively and land their partial
		// certified intervals in the cache, where the handoff picks them
		// up.
		logger.Info("rbserve: draining", slog.String("signal", sig.String()), slog.Duration("grace", cfg.GracePeriod))
		s.Drain()
		agent := agentPtr.Load()
		if agent != nil {
			agent.SetDraining(true)
		}
		// One grace window covers ALL teardown steps: the HTTP listener
		// drain, the lane worker drain, and (when joined) the cache
		// handoff share the deadline, so the total never exceeds -grace
		// (an operator aligning it with e.g. a kubelet termination grace
		// must not see it spent twice). A slice of the window is reserved
		// for the handoff so the drain cannot starve it.
		reserve := time.Duration(0)
		if agent != nil {
			reserve = cfg.GracePeriod / 5
			if reserve < 250*time.Millisecond {
				reserve = 250 * time.Millisecond
			}
			if reserve > 3*time.Second {
				reserve = 3 * time.Second
			}
		}
		deadline := time.Now().Add(cfg.GracePeriod)
		ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(-reserve))
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("rbserve: http shutdown", slog.Any("err", err))
		}
		cancel()
		s.ShutdownWithin(time.Until(deadline) - reserve)
		if agent != nil {
			hctx, hcancel := context.WithDeadline(context.Background(), deadline)
			if n, err := agent.Handoff(hctx); err != nil {
				logger.Warn("rbserve: cache handoff failed", slog.Any("err", err))
			} else {
				logger.Info("rbserve: cache handed off", slog.Int("entries", n))
			}
			if err := agent.Leave(hctx); err != nil {
				logger.Warn("rbserve: cluster leave failed", slog.Any("err", err))
			}
			hcancel()
			agent.Stop()
		}
		logger.Info("rbserve: drained, exiting")
	}
}
