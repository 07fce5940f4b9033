package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// The serve workload: single requests over loopback HTTP to an in-process
// rbserve (default lanes, 256-entry cache) from serveClients closed-loop
// clients, each sending its next request only when the previous answer
// arrived. Every layer of the request path runs, and the cache both reads
// and writes: HTTP and JSON, canonicalization, cache probes, stores,
// merges and warm starts, both lanes and the job queue, deadline-bound
// engine runs, translation and replay verification.

// serveClients is the closed loop's client count, the reference host's
// nproc.
const serveClients = 2

type serveEnv struct {
	srv    *server
	corpus *serveCorpus
}

// setupServe generates the requests, starts a server and stores the
// working set and the hard classes in its cache.
func setupServe(seed int64) (*serveEnv, error) {
	c, err := buildServeCorpus(seed)
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	if err := srv.warmUp(c.warm); err != nil {
		srv.stop()
		return nil, err
	}
	return &serveEnv{srv: srv, corpus: c}, nil
}

// run is one measured window: each client walks its schedule until the
// window closes. With a tracer, each request's server span tree is
// fetched right after its answer.
func (e *serveEnv) run(o options, tr *tracer) ([]answer, window, error) {
	per := make([][]answer, serveClients)
	w, err := e.srv.measure(func() {
		deadline := time.Now().Add(o.window)
		var wg sync.WaitGroup
		for c := range serveClients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sched := e.corpus.sched[c]
				seen := make(map[*request]bool)
				for k := 0; time.Now().Before(deadline); k++ {
					req := sched[k%len(sched)]
					id := fmt.Sprintf("pbench-%d-%d-%d", o.seed, c, k)
					per[c] = append(per[c], e.send(req, id, !seen[req], tr))
					seen[req] = true
				}
			}()
		}
		wg.Wait()
	})
	var all []answer
	for _, a := range per {
		all = append(all, a...)
	}
	return all, w, err
}

// send issues one request, polling an async one until its job is done;
// the latency runs from the send to the observed answer. Unless full, the
// answer's trace is dropped: the client's first answer to the same
// request keeps it for the replay check.
func (e *serveEnv) send(req *request, id string, full bool, tr *tracer) answer {
	a := answer{req: req, full: full}
	start := time.Now()
	status, body, err := e.srv.do(http.MethodPost, "/solve", req.body, id)
	a.latency = time.Since(start)
	if err == nil && req.async && status == http.StatusAccepted {
		a.resp, a.err = e.srv.awaitJob(body)
		a.latency = time.Since(start)
	} else {
		a.resp, a.err = decodeAnswer(status, body, err)
	}
	if a.resp != nil && !full {
		a.resp.Moves = nil
	}
	if tr != nil {
		e.srv.graftTrace(tr, id, start, a.latency)
	}
	return a
}

func runServe(o options) (*outcome, error) {
	out := newOutcome()
	var env *serveEnv
	err := out.timeSetup(setupReps, func() (err error) {
		env, err = setupServe(o.seed)
		return err
	}, func() { env.srv.stop() })
	if err != nil {
		return nil, err
	}
	out.inputDigest = env.corpus.digest
	answers, w, err := env.run(o, nil)
	env.srv.stop()
	if err != nil {
		return nil, err
	}
	ok := out.gate(answers)
	out.serveMetrics(ok, w, len(answers))
	if o.tr == nil {
		return out, nil
	}

	// The traced window: a fresh server in the same state, the same
	// requests, each answer's server span tree grafted beneath the
	// benchmark's span of the request.
	traced, err := setupServe(o.seed)
	if err != nil {
		return nil, err
	}
	tAnswers, tw, err := traced.run(o, o.tr)
	if err == nil {
		out.values["service.handler_us"] = mean(traced.srv.handlerCalls(o.tr, "/solve", bodies(traced.corpus.hits)))
	}
	traced.srv.stop()
	if err != nil {
		return nil, err
	}
	tOK := out.gate(tAnswers)
	out.values["bench.trace_overhead_frac"] = overhead(out.values["throughput_rps"], float64(len(tOK))/tw.elapsed.Seconds())
	out.stageMetrics(o.tr, len(tAnswers))
	out.layerCalls(o.tr, tOK)
	return out, nil
}

// serveMetrics records the end-to-end metrics of the answers that passed
// the gate.
func (o *outcome) serveMetrics(ok []answer, w window, requests int) {
	var lat, hits, jobs, gaps []float64
	optimal := 0
	for _, a := range ok {
		l := ms(a.latency)
		lat = append(lat, l)
		switch {
		case a.req.async:
			jobs = append(jobs, l)
		case a.resp.Cached:
			hits = append(hits, l)
		}
		if a.resp.Optimal {
			optimal++
		}
		gaps = append(gaps, a.resp.Gap)
	}
	v := o.values
	v["throughput_rps"] = float64(len(ok)) / w.elapsed.Seconds()
	o.latencies(lat)
	v["hit_latency_p99_ms"] = percentile(hits, 9900)
	v["job_latency_p50_ms"] = median(jobs)
	v["optimal_frac"] = ratio(float64(optimal), float64(len(ok)))
	v["gap_mean"] = mean(gaps)
	o.windowMetrics(w, requests)
}
