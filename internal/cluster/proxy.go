package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/instcache"
	"rbpebble/internal/obs"
	"rbpebble/internal/service"
)

// ProxyConfig tunes a Proxy. Zero values select the defaults, which
// DefaultProxyConfig returns filled in.
type ProxyConfig struct {
	// Members are the statically-seeded rbserve replicas, as host:port.
	// They never TTL-expire. May be empty: nodes can join dynamically
	// through POST /cluster/join instead.
	Members []string
	// ProbeInterval is the health-probe period (default 2s; < 0
	// disables the background prober AND the membership sweeper — tests
	// drive health and expiry by hand).
	ProbeInterval time.Duration
	// MemberTTL is the dynamic-member lease: a joined node that stops
	// renewing for this long is declared dead and removed from the
	// member table (default 15s).
	MemberTTL time.Duration
	// MaxBodyBytes caps the request body (default: the node's,
	// service.Config.MaxBodyBytes) so the proxy rejects oversized
	// bodies before buffering them for failover replay.
	MaxBodyBytes int64
	// MaxNodes rejects instances above this size before the routing
	// parse materializes the graph (default: the node's,
	// service.Config.MaxNodes) — a tiny body declaring two billion
	// nodes must not allocate at the routing tier any more than at a
	// node.
	MaxNodes int
	// TenantRate/TenantBurst configure per-tenant token-bucket
	// admission (tokens/second and bucket size; one token = one solve
	// item, batches draw their item count at once). Rate <= 0 disables
	// quotas. Tenants are named by the X-Rbpebble-Tenant header; absent
	// maps to the "default" bucket.
	TenantRate  float64
	TenantBurst int
	// Comm tunes the retry/backoff/circuit-breaker policy of every
	// proxy->node call (see CommConfig). The proxy sets
	// Comm.OnBreakerOpen itself: an opening breaker demotes the member
	// in the member table. The health prober probes through it too.
	Comm CommConfig
	// Logger receives structured membership/breaker lifecycle logs
	// (default: discard).
	Logger *slog.Logger
}

// proxyMetrics are the proxy's own monotone counters.
type proxyMetrics struct {
	requests, routed, failovers, fanouts, errors atomic.Uint64
	handoffEntries, handoffDropped               atomic.Uint64
	replicatedEntries, replicatedDropped         atomic.Uint64
	batches, batchItems, subBatches              atomic.Uint64
	quotaRejected                                atomic.Uint64
}

// Proxy is the cluster front end: it routes each POST /solve to the
// replica owning the request's canonical instance key (so repeats and
// isomorphic relabelings warm the same node's interval cache), fails
// over to the key's next owner on node failure, fans job polls out to
// every node, merges the fleet's /metrics and /healthz into
// cluster-level views, and runs the elastic-membership plane: nodes
// join and renew leases via POST /cluster/join, hand their caches off
// on drain via POST /cluster/handoff, and replicate proven-optimal
// entries via POST /cluster/replicate. Create with NewProxy, serve
// Handler, stop with Close.
type Proxy struct {
	cfg        ProxyConfig
	comm       *CommClient
	membership *Membership
	prober     *Prober
	mux        *http.ServeMux
	quota      *TenantQuota
	recorder   *obs.Recorder
	log        *slog.Logger
	m          proxyMetrics

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// traceCap bounds the proxy's /debug/trace/{id} recorder ring (most
// recent traces).
const traceCap = 256

// DefaultProxyConfig returns the configuration NewProxy runs with when
// given ProxyConfig{}: every default filled in.
func DefaultProxyConfig() ProxyConfig { return ProxyConfig{}.withDefaults() }

func (cfg ProxyConfig) withDefaults() ProxyConfig {
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.MemberTTL <= 0 {
		cfg.MemberTTL = defaultMemberTTL
	}
	node := service.DefaultConfig()
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = node.MaxBodyBytes
	}
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = node.MaxNodes
	}
	cfg.Comm = cfg.Comm.withDefaults()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return cfg
}

// NewProxy returns a started Proxy.
func NewProxy(cfg ProxyConfig) *Proxy {
	cfg = cfg.withDefaults()
	p := &Proxy{
		cfg:        cfg,
		membership: NewMembership(cfg.MemberTTL),
		recorder:   obs.NewRecorder(traceCap),
		log:        cfg.Logger,
		stop:       make(chan struct{}),
	}
	p.membership.AddStatic(cfg.Members...)
	// An opening breaker demotes the member immediately — faster than
	// waiting for the prober to notice the flapping.
	comm := cfg.Comm
	comm.OnBreakerOpen = func(member string) {
		p.membership.Demote(member)
		p.log.Warn("circuit breaker opened; member demoted", slog.String("member", member))
	}
	p.comm = NewComm(comm)
	if cfg.ProbeInterval >= 0 {
		p.prober = NewProber(p.membership, p.comm, cfg.ProbeInterval)
		p.wg.Add(1)
		go p.sweepLoop()
	}
	p.quota = NewTenantQuota(cfg.TenantRate, cfg.TenantBurst)
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("POST /solve", p.handleSolve)
	p.mux.HandleFunc("POST /solve/batch", p.handleSolveBatch)
	p.mux.HandleFunc("GET /solve/{id}", p.handleJob)
	p.mux.HandleFunc("DELETE /solve/{id}", p.handleJob)
	p.mux.HandleFunc("GET /healthz", p.handleHealthz)
	p.mux.HandleFunc("GET /metrics", p.handleMetrics)
	p.mux.HandleFunc("POST /cluster/join", p.handleJoin)
	p.mux.HandleFunc("POST /cluster/leave", p.handleLeave)
	p.mux.HandleFunc("GET /cluster/members", p.handleMembers)
	p.mux.HandleFunc("POST /cluster/handoff", p.handleImport(true, &p.m.handoffEntries, &p.m.handoffDropped))
	p.mux.HandleFunc("POST /cluster/replicate", p.handleImport(false, &p.m.replicatedEntries, &p.m.replicatedDropped))
	p.mux.HandleFunc("GET /debug/solves", p.handleDebugSolves)
	p.mux.HandleFunc("GET /debug/trace/{id}", p.handleDebugTrace)
	p.mux.HandleFunc("GET /debug/jobs/{id}/search", p.handleDebugJobSearch)
	return p
}

// Membership exposes the member table (tests drive health and lease
// expiry through it when the prober and sweeper are disabled).
func (p *Proxy) Membership() *Membership { return p.membership }

// Handler returns the HTTP handler.
func (p *Proxy) Handler() http.Handler { return p.mux }

// Close stops the health prober and the membership sweeper.
func (p *Proxy) Close() {
	p.once.Do(func() { close(p.stop) })
	if p.prober != nil {
		p.prober.Stop()
	}
	p.wg.Wait()
}

// sweepLoop expires dead dynamic members (lease lapsed: no heartbeat
// renewals) out of the member table, at a quarter of the TTL so a dead
// node is gone within ~1.25 TTLs worst case.
func (p *Proxy) sweepLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.membership.TTL() / 4)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			for _, m := range p.membership.Sweep() {
				p.comm.Forget(m)
			}
		}
	}
}

// RouteKey computes the canonical routing key of a solve request by
// parsing it exactly the way a node will (service.BuildProblem, with
// the same node-count guard) and keying the resulting instance.
// Isomorphic relabelings of one DAG yield one key, so they all route
// to the same replica's cache.
func RouteKey(req service.SolveRequest, maxNodes int) (string, error) {
	prob, err := service.BuildProblem(req, maxNodes)
	if err != nil {
		return "", err
	}
	inst := instcache.Instance{G: prob.G, Model: prob.Model, R: prob.R, Convention: prob.Convention}
	key, _ := inst.Key()
	return key, nil
}

// handleSolve routes by canonical instance key with owner-order
// failover: a connection error, a 502, or a draining 503 from the
// owner demotes it and moves on to the key's next owner.
func (p *Proxy) handleSolve(w http.ResponseWriter, r *http.Request) {
	p.m.requests.Add(1)
	// Start (or adopt) the trace before any rejection path so quota
	// 429s and routing errors still carry X-Rbpebble-Trace.
	ctx, _ := obs.StartRequest(w, r, p.recorder)
	if !p.admitTenant(w, r, 1) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes))
	if err != nil {
		p.m.errors.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var req service.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		p.m.errors.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	rctx, rsp := obs.StartSpan(ctx, "route")
	key, err := RouteKey(req, p.cfg.MaxNodes)
	if err != nil {
		rsp.SetAttr("err", err.Error())
		rsp.End()
		p.m.errors.Add(1)
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	rsp.End()
	owners := p.membership.Owners(key)
	if len(owners) == 0 {
		p.m.errors.Add(1)
		httpError(w, http.StatusServiceUnavailable, "no cluster members")
		return
	}
	for i, member := range owners {
		if i > 0 {
			p.m.failovers.Add(1)
		}
		// Each failover attempt is its own span under the same trace: the
		// span tree shows which members were tried and why they lost the
		// request, while the node sees one trace ID across all attempts.
		fctx, fsp := obs.StartSpan(rctx, "forward")
		fsp.SetAttr("member", member)
		// The comm layer retries pre-send dial failures with backoff and
		// fails fast on an open breaker; anything it still can't deliver
		// demotes the member and fails over to the key's next owner.
		resp, err := p.comm.Post(fctx, member, "/solve", "application/json", body)
		if err != nil {
			fsp.SetAttr("err", err.Error())
			fsp.End()
			p.membership.Demote(member)
			p.log.Warn("solve forward failed; member demoted",
				slog.String("member", member), slog.String("trace", obs.TraceIDFrom(ctx)), slog.Any("err", err))
			continue
		}
		fsp.SetAttr("status", strconv.Itoa(resp.StatusCode))
		if memberGone(resp) {
			// The body is drained so the connection can be reused.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			fsp.SetAttr("failover", "true")
			fsp.End()
			p.membership.Demote(member)
			continue
		}
		p.m.routed.Add(1)
		relayResponse(w, resp, member)
		fsp.End()
		return
	}
	p.m.errors.Add(1)
	httpError(w, http.StatusBadGateway, "all cluster members failed")
}

// handleJob fans a job poll or cancellation out to every ROUTABLE
// member (job IDs are node-local; the first node that knows the ID
// answers). Unhealthy members are skipped — probing a blackholed node
// with the long forward timeout would hang the poll for minutes, and
// its jobs died with it anyway.
func (p *Proxy) handleJob(w http.ResponseWriter, r *http.Request) {
	p.m.requests.Add(1)
	p.m.fanouts.Add(1)
	ctx, _ := obs.StartRequest(w, r, nil)
	if len(p.membership.Routable()) == 0 {
		httpError(w, http.StatusServiceUnavailable, "no healthy cluster members")
		return
	}
	if resp, member := p.firstAnswer(ctx, r.Method, "/solve/"+r.PathValue("id"), known); resp != nil {
		relayResponse(w, resp, member)
		return
	}
	httpError(w, http.StatusNotFound, "unknown job on every cluster member")
}

// NodeHealth is one member's slot in the cluster health view.
type NodeHealth struct {
	Member   string `json:"member"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
}

// ClusterHealth is the GET /healthz body: the cluster is ok while any
// member is up. It reads the same table as GET /cluster/members.
type ClusterHealth struct {
	OK    bool         `json:"ok"`
	Nodes []NodeHealth `json:"nodes"`
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	view := ClusterHealth{}
	for _, v := range p.membership.View() {
		view.Nodes = append(view.Nodes, NodeHealth{Member: v.Member, Healthy: v.Healthy, Draining: v.Draining})
		view.OK = view.OK || v.Healthy
	}
	w.Header().Set("Content-Type", "application/json")
	if !view.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(view)
}

// handleMetrics merges the fleet: every downstream rbserve counter is
// summed across reachable members and re-emitted with a cluster_
// prefix (so rbserve_warm_starts_total across the fleet shows as
// cluster_rbserve_warm_starts_total), followed by per-node up gauges
// and the proxy's own counters.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	up := gather(p, r.Context(), p.fetchMetrics)
	sums := map[string]float64{}
	var names []string
	for _, vals := range up {
		for name, v := range vals {
			if _, ok := sums[name]; !ok {
				names = append(names, name)
			}
			sums[name] += v
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	sort.Strings(names)
	for _, name := range names {
		// 'g' prints integers bare (counters stay "42", not "42.000000")
		// and keeps fractional histogram sums exact enough.
		fmt.Fprintf(w, "cluster_%s %s\n", name, strconv.FormatFloat(sums[name], 'g', -1, 64))
	}
	for _, m := range p.membership.View() {
		v := 0
		if _, ok := up[m.Member]; ok && m.Healthy {
			v = 1
		}
		fmt.Fprintf(w, "rbproxy_node_up{node=%q} %d\n", m.Member, v)
	}
	joins, leaves, expired := p.membership.Counters()
	for _, kv := range []struct {
		name string
		v    uint64
	}{
		{"cluster_membership_size", uint64(p.membership.Size())},
		{"cluster_breaker_open", uint64(len(p.comm.OpenBreakers()))},
		{"cluster_handoff_entries_total", p.m.handoffEntries.Load()},
		{"cluster_handoff_dropped_total", p.m.handoffDropped.Load()},
		{"cluster_replicated_entries_total", p.m.replicatedEntries.Load()},
		{"cluster_replicated_dropped_total", p.m.replicatedDropped.Load()},
		{"rbproxy_requests_total", p.m.requests.Load()},
		{"rbproxy_routed_total", p.m.routed.Load()},
		{"rbproxy_failovers_total", p.m.failovers.Load()},
		{"rbproxy_fanouts_total", p.m.fanouts.Load()},
		{"rbproxy_errors_total", p.m.errors.Load()},
		{"rbproxy_batches_total", p.m.batches.Load()},
		{"rbproxy_batch_items_total", p.m.batchItems.Load()},
		{"rbproxy_batch_subbatches_total", p.m.subBatches.Load()},
		{"rbproxy_quota_rejected_total", p.m.quotaRejected.Load()},
		{"rbproxy_joins_total", joins},
		{"rbproxy_leaves_total", leaves},
		{"rbproxy_expired_members_total", expired},
	} {
		fmt.Fprintf(w, "%s %d\n", kv.name, kv.v)
	}
}

// ImportPayload is the body of POST /cluster/handoff and POST
// /cluster/replicate (node -> proxy) and of POST /cache/import
// (proxy -> node): a batch of cache entries in canonical numbering,
// with the sending member so routing can exclude it.
type ImportPayload struct {
	From    string            `json:"from,omitempty"`
	Entries []instcache.Entry `json:"entries"`
}

// joinRequest is the POST /cluster/join and /cluster/leave body.
type joinRequest struct {
	Member   string `json:"member"`
	Draining bool   `json:"draining,omitempty"`
}

// JoinResponse tells the joining node its lease: renew well within
// TTLMS (nodes use TTL/3) or be declared dead.
type JoinResponse struct {
	TTLMS   int64 `json:"ttl_ms"`
	Members int   `json:"members"`
}

// handleJoin registers or renews a member lease. Heartbeat renewals
// arrive on the same endpoint; a renewal with draining=true announces
// a SIGTERM drain without waiting for the next health probe.
func (p *Proxy) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad join body: "+err.Error())
		return
	}
	if !strings.Contains(req.Member, ":") {
		httpError(w, http.StatusBadRequest, "member must be host:port")
		return
	}
	p.membership.Join(req.Member, req.Draining)
	writeJSON(w, JoinResponse{TTLMS: p.membership.TTL().Milliseconds(), Members: p.membership.Size()})
}

// handleLeave deregisters a member immediately (the graceful goodbye
// after its drain handoff).
func (p *Proxy) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad leave body: "+err.Error())
		return
	}
	p.membership.Leave(req.Member)
	p.comm.Forget(req.Member)
	writeJSON(w, JoinResponse{TTLMS: p.membership.TTL().Milliseconds(), Members: p.membership.Size()})
}

// handleMembers serves the member table.
func (p *Proxy) handleMembers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, p.membership.View())
}

// handleImport serves POST /cluster/handoff and POST
// /cluster/replicate: the one path by which a node's cache entries
// reach Cache.Import on its peers. A handoff is a draining node's cache
// export, pushed so failover warm-starts refinement instead of
// re-searching from scratch; it also marks the sender draining and
// demotes it, even if no probe has noticed yet. A replication is a live
// node's freshly stored entries (proven optima above all), pushed so a
// hard crash — no graceful drain — still leaves them servable. Either
// way each entry goes to its key's owner, never the sender, through the
// keyed fan-out: an unreachable target is demoted, one that refuses is
// only skipped, and entries no target took are dropped (counted; the
// membership churn that caused it will usually re-derive them).
func (p *Proxy) handleImport(handoff bool, delivered, dropped *atomic.Uint64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var in ImportPayload
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes)).Decode(&in); err != nil {
			httpError(w, http.StatusBadRequest, "bad import body: "+err.Error())
			return
		}
		if handoff && in.From != "" {
			p.membership.SetStatus(in.From, false, true)
		}
		keys := make([]string, len(in.Entries))
		for i, e := range in.Entries {
			keys[i] = e.Key
		}
		var sent atomic.Uint64
		p.scatter(keys, in.From, func(target string, idxs []int) bool {
			group := make([]instcache.Entry, len(idxs))
			for j, i := range idxs {
				group[j] = in.Entries[i]
			}
			err := p.comm.Call(r.Context(), target, http.MethodPost, "/cache/import", ImportPayload{From: in.From, Entries: group}, nil)
			if err == nil {
				sent.Add(uint64(len(idxs)))
			} else if !errors.As(err, new(errStatus)) {
				p.membership.Demote(target)
			}
			return err != nil
		})
		n := sent.Load()
		lost := uint64(len(in.Entries)) - n
		delivered.Add(n)
		dropped.Add(lost)
		writeJSON(w, map[string]uint64{"delivered": n, "dropped": lost})
	}
}

// labelPreservedMetrics are downstream series whose labels survive the
// fleet merge: summing a histogram bucket across nodes only makes
// sense per le bound, and a per-lane queue gauge is useless with the
// lane stripped. Everything else labeled (rbserve_job_lower_bound
// {job="..."}) is still summed under its label-stripped name.
var labelPreservedMetrics = map[string]bool{
	"rbserve_request_seconds_bucket": true,
	"rbserve_queue_depth":            true,
	// Summed per version label set, the standard fleet-rollout view:
	// cluster_rbserve_build_info{version=...} counts nodes per build.
	"rbserve_build_info": true,
}

// fetchMetrics scrapes one member's Prometheus text exposition into
// series -> value. Values are parsed as floats (histogram _sum lines
// are fractional seconds). For series in labelPreservedMetrics the
// full labeled series name is the key, so the fleet merge sums
// per-label-set across nodes; other labeled series are summed under
// the label-stripped name.
func (p *Proxy) fetchMetrics(ctx context.Context, member string) (map[string]float64, error) {
	resp, err := p.comm.Get(ctx, member, "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, valStr, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 && !labelPreservedMetrics[name[:i]] {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// relayResponse copies a downstream response to the client, stamping
// the member that served it.
func relayResponse(w http.ResponseWriter, resp *http.Response, member string) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Rbproxy-Node", member)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
