package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/dag"
	"rbpebble/internal/instcache"
	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
	"rbpebble/internal/service"
	"rbpebble/internal/solve"
)

const (
	pollEvery     = 5 * time.Millisecond
	scrapeEvery   = time.Second
	answerTimeout = 30 * time.Second
)

// server is an in-process rbserve with its default configuration on a
// loopback listener, and the HTTP client the workload drives it through.
type server struct {
	svc    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(service.Config{})
	s := &server{
		svc:  svc,
		hs:   &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   answerTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		},
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) // returns once stop shuts the listener down
	}()
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), answerTimeout)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.svc.Close()
	s.client.CloseIdleConnections()
}

// do sends one request and reads the whole response body.
func (s *server) do(method, path string, body []byte, traceID string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// warmUp solves each request once, in order, and requires an answer.
func (s *server) warmUp(reqs []*request) error {
	for _, r := range reqs {
		status, data, err := s.do(http.MethodPost, "/solve", r.body, "")
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.class, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %s", r.class, status, bytes.TrimSpace(data))
		}
	}
	return nil
}

// metrics reads the unlabeled samples of GET /metrics.
func (s *server) metrics() (map[string]float64, error) {
	status, data, err := s.do(http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.ContainsAny(f[0], "{#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, nil
}

// scrapeLoop reads /metrics every scrapeEvery, as a Prometheus scraper
// would, until stop is closed, and returns each scrape's duration in ms.
func (s *server) scrapeLoop(stop <-chan struct{}) []float64 {
	var out []float64
	t := time.NewTicker(scrapeEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			start := time.Now()
			if status, _, err := s.do(http.MethodGet, "/metrics", nil, ""); err == nil && status == http.StatusOK {
				out = append(out, ms(time.Since(start)))
			}
		}
	}
}

// graftTrace records the benchmark's span of one request and grafts the
// server's span tree of it, fetched from /debug/trace/{id}, beneath.
func (s *server) graftTrace(tr *tracer, id string, start time.Time, d time.Duration) {
	root := tr.add(id, "bench.request", 0, start, start.Add(d))
	status, body, err := s.do(http.MethodGet, "/debug/trace/"+id, nil, "")
	if err != nil || status != http.StatusOK {
		return
	}
	var view obs.TraceView
	if json.Unmarshal(body, &view) == nil {
		tr.graft(view, root)
	}
}

// awaitJob polls an accepted async job until it is done.
func (s *server) awaitJob(accepted []byte) (*service.SolveResponse, string) {
	var job service.JobResponse
	if err := json.Unmarshal(accepted, &job); err != nil {
		return nil, "decoding job: " + err.Error()
	}
	for deadline := time.Now().Add(answerTimeout); time.Now().Before(deadline); {
		time.Sleep(pollEvery)
		status, body, err := s.do(http.MethodGet, "/solve/"+job.ID, nil, "")
		if err != nil {
			return nil, err.Error()
		}
		if status != http.StatusOK {
			return nil, fmt.Sprintf("polling %s: status %d", job.ID, status)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			return nil, "decoding job: " + err.Error()
		}
		switch job.Status {
		case "done":
			if job.Result == nil {
				return nil, "job " + job.ID + " done without a result"
			}
			return job.Result, ""
		case "error", "canceled":
			return nil, fmt.Sprintf("job %s: %s %s", job.ID, job.Status, job.Error)
		}
	}
	return nil, "job " + job.ID + " not done within " + answerTimeout.String()
}

func decodeAnswer(status int, body []byte, err error) (*service.SolveResponse, string) {
	if err != nil {
		return nil, err.Error()
	}
	if status != http.StatusOK {
		return nil, fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var r service.SolveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, "decoding answer: " + err.Error()
	}
	return &r, ""
}

// handlerCalls times Server.Handler().ServeHTTP into an in-memory
// recorder on each body: the request path without the network.
func (s *server) handlerCalls(tr *tracer, path string, bodies [][]byte) []float64 {
	h := s.svc.Handler()
	var out []float64
	for i, body := range bodies {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		d := tr.timed("handler-"+strconv.Itoa(i), "service.Handler.ServeHTTP", 0, func() { h.ServeHTTP(rec, r) })
		if rec.Code == http.StatusOK {
			out = append(out, us(d))
		}
	}
	return out
}

// window is what every server workload measures around its timed loop.
type window struct {
	elapsed       time.Duration
	scrapeMS      []float64
	before, after map[string]float64
	rt0, rt1      runtimeCounters
}

// measure runs loop for one window with the scraper alongside, reading
// the server's counters and the runtime's before and after.
func (s *server) measure(loop func()) (window, error) {
	var w window
	var err error
	if w.before, err = s.metrics(); err != nil {
		return w, err
	}
	w.rt0 = readRuntime()
	stop := make(chan struct{})
	scraped := make(chan []float64)
	go func() { scraped <- s.scrapeLoop(stop) }()
	start := time.Now()
	loop()
	w.elapsed = time.Since(start)
	w.rt1 = readRuntime()
	close(stop)
	w.scrapeMS = <-scraped
	w.after, err = s.metrics()
	return w, err
}

// windowMetrics records what every server window measures: peak memory,
// the runtime, and ratios of the server's own counters.
func (o *outcome) windowMetrics(w window, requests int) {
	v := o.values
	v["mem_peak_mb"] = peakRSSMB()
	o.runtimeDelta(w.rt0, w.rt1)
	d := func(name string) float64 { return w.after[name] - w.before[name] }
	hits := d("rbserve_cache_hits_total") + d("rbserve_interval_hits_total")
	v["instcache.hit_frac"] = ratio(hits, hits+d("rbserve_cache_misses_total"))
	v["instcache.tighten_frac"] = ratio(d("rbserve_interval_tightened_total"), d("rbserve_warm_starts_total"))
	v["instcache.dedup_frac"] = ratio(d("rbserve_batch_dedup_total"), d("rbserve_batch_items_total"))
	v["instcache.evictions"] = d("rbserve_cache_evictions_total") + d("rbserve_interval_evictions_total")
	v["service.shed_frac"] = ratio(d("rbserve_lane_shed_total")+d("rbserve_jobs_shed_total"), float64(requests))
	v["service.metrics_scrape_ms"] = mean(w.scrapeMS)
}

// answer is one request of a measured window and the answer it got.
type answer struct {
	req     *request
	latency time.Duration
	resp    *service.SolveResponse // nil when the request failed
	err     string
	// full marks an answer whose trace was kept for the replay check.
	full bool
}

// moveKinds maps the wire names of moves back to their kinds.
var moveKinds = func() map[string]pebble.MoveKind {
	m := make(map[string]pebble.MoveKind)
	for _, k := range []pebble.MoveKind{pebble.Load, pebble.Store, pebble.Compute, pebble.Delete} {
		m[k.String()] = k
	}
	return m
}()

func wireMoves(ms []service.MoveJSON) ([]pebble.Move, error) {
	out := make([]pebble.Move, len(ms))
	for i, m := range ms {
		k, ok := moveKinds[m.Op]
		if !ok {
			return nil, fmt.Errorf("unknown move %q", m.Op)
		}
		out[i] = pebble.Move{Kind: k, Node: dag.NodeID(m.Node)}
	}
	return out, nil
}

// replayCost replays moves on p's graph and returns the verified scaled
// cost.
func replayCost(p solve.Problem, moves []pebble.Move) (int64, error) {
	tr := &pebble.Trace{Model: p.Model, R: p.R, Convention: p.Convention, Moves: moves}
	res, err := tr.Run(p.G)
	if err != nil {
		return 0, fmt.Errorf("trace does not replay: %w", err)
	}
	return res.Cost.Scaled(p.Model), nil
}

// scaled converts an answer's bounds back to exact scaled cost units.
func scaled(req *request, v float64) int64 {
	return int64(math.Round(v * anytime.CostScale(req.p.Model)))
}

// checkInterval is the part of the gate every service answer passes: a
// certified interval, closed when it claims optimality, that contains the
// optimum where the exact workload knows it.
func checkInterval(req *request, r *service.SolveResponse) error {
	lower, upper := scaled(req, r.Lower), scaled(req, r.Upper)
	switch {
	case lower > upper:
		return fmt.Errorf("%s: lower %d above upper %d", req.class, lower, upper)
	case r.Optimal && lower != upper:
		return fmt.Errorf("%s: optimal answer with open interval [%d, %d]", req.class, lower, upper)
	case req.opt > 0 && (lower > req.opt || req.opt > upper):
		return fmt.Errorf("%s: interval [%d, %d] excludes the optimum %d", req.class, lower, upper, req.opt)
	}
	return nil
}

// checkAnswer adds the replay to checkInterval: the returned trace must
// replay on the requester's own graph at exactly the upper bound.
func checkAnswer(req *request, r *service.SolveResponse) error {
	if err := checkInterval(req, r); err != nil {
		return err
	}
	if len(r.Moves) == 0 {
		return fmt.Errorf("%s: answer carries no trace", req.class)
	}
	moves, err := wireMoves(r.Moves)
	if err != nil {
		return fmt.Errorf("%s: %v", req.class, err)
	}
	got, err := replayCost(req.p, moves)
	if err != nil {
		return fmt.Errorf("%s: %v", req.class, err)
	}
	if upper := scaled(req, r.Upper); got != upper {
		return fmt.Errorf("%s: trace replays at %d, upper bound %d", req.class, got, upper)
	}
	return nil
}

// gate runs the correctness gate on every answer, after the window, and
// returns the answers that passed.
func (o *outcome) gate(answers []answer) []answer {
	var ok []answer
	for _, a := range answers {
		o.attempted++
		if a.resp == nil {
			o.fail(a.req.class + ": " + a.err)
			continue
		}
		check := checkInterval
		if a.full {
			check = checkAnswer
		}
		if err := check(a.req, a.resp); err != nil {
			o.violate(err)
			continue
		}
		ok = append(ok, a)
	}
	return ok
}

// layerCalls times the request path's layers from outside, on each
// distinct request of the answers that kept their trace: parsing, the
// canonical key, a cache probe, trace translation and replay.
func (o *outcome) layerCalls(tr *tracer, answers []answer) {
	type probe struct {
		key  string
		tier int
	}
	var (
		build, canon, translate, replay, probeUS []float64
		probes                                   []probe
	)
	cache := instcache.New(0)
	seen := make(map[*request]bool)
	for _, a := range answers {
		if !a.full || seen[a.req] {
			continue
		}
		seen[a.req] = true
		id := "layers-" + strconv.Itoa(len(seen))
		var p solve.Problem
		var err error
		build = append(build, us(tr.timed(id, "service.BuildProblem", 0, func() { p, err = service.BuildProblem(a.req.wire, 0) })))
		if err != nil {
			continue
		}
		inst := instcache.Instance{G: p.G, Model: p.Model, R: p.R, Convention: p.Convention}
		var key string
		var perm []dag.NodeID
		canon = append(canon, us(tr.timed(id, "instcache.Instance.Key", 0, func() { key, perm = inst.Key() })))
		moves, err := wireMoves(a.resp.Moves)
		if err != nil {
			continue
		}
		canonical := instcache.ToCanonical(moves, perm)
		var back []pebble.Move
		translate = append(translate, us(tr.timed(id, "instcache.FromCanonical", 0, func() { back = instcache.FromCanonical(canonical, perm) })))
		replay = append(replay, us(tr.timed(id, "pebble.Trace.Run", 0, func() { replayCost(p, back) })))
		tier := instcache.TierForBudget(a.req.deadline)
		val := instcache.Value{
			Moves:       canonical,
			UpperScaled: scaled(a.req, a.resp.Upper),
			LowerScaled: scaled(a.req, a.resp.Lower),
			Optimal:     a.resp.Optimal,
			Tier:        tier,
		}
		cache.Do(context.Background(), key, tier, func(*instcache.Value) (instcache.Value, error) { return val, nil })
		probes = append(probes, probe{key, tier})
	}
	for i, pr := range probes {
		probeUS = append(probeUS, us(tr.timed("layers-"+strconv.Itoa(i+1), "instcache.Cache.Probe", 0, func() { cache.Probe(pr.key, pr.tier) })))
	}
	v := o.values
	v["service.build_us"] = mean(build)
	v["instcache.canon_us.p50"] = percentile(canon, 5000)
	v["instcache.canon_us.p99"] = percentile(canon, 9900)
	v["instcache.probe_us"] = mean(probeUS)
	v["instcache.translate_us"] = mean(translate)
	v["pebble.replay_us"] = mean(replay)
}

// stageMetrics turns the traced window's span trees into self time per
// server stage and per request, queue wait per lane, and the share of
// each request spent outside every server stage (HTTP, JSON, client).
func (o *outcome) stageMetrics(tr *tracer, requests int) {
	self := tr.selfTimes()
	stage := make(map[string]float64)
	wait := make(map[string][]float64)
	var client float64
	for i, s := range tr.spans {
		switch {
		case s.Server:
			stage[s.Name] += self[i]
			if s.Name == "lane-queue" {
				wait[s.Lane] = append(wait[s.Lane], s.EndMS-s.StartMS)
			}
		case s.Name == "bench.request":
			client += self[i]
		}
	}
	n := float64(requests)
	for _, st := range serverStages {
		o.values["service.stage_ms."+st] = ratio(stage[st], n)
	}
	o.values["service.lane_wait_ms.fast"] = mean(wait["fast"])
	o.values["service.lane_wait_ms.heavy"] = mean(wait["heavy"])
	o.values["bench.client_ms"] = ratio(client, n)
}
