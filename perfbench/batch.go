package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"rbpebble/internal/service"
)

// The batch workload: one closed-loop client posts 64-item
// POST /solve/batch requests to an in-process rbserve. Each batch holds
// relabelings of eight classes of larger graphs, and a warm-up has stored
// every class at a higher budget tier than the items ask for, so the cache
// probe serves every item and no engine runs: the concurrent
// canonicalization pool, in-batch dedup, translation and replay do the
// work. The exact workload never touches these layers.

type batchEnv struct {
	srv    *server
	corpus *batchCorpus
}

func setupBatch(seed int64) (*batchEnv, error) {
	c, err := buildBatchCorpus(seed)
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
	return &batchEnv{srv: srv, corpus: c}, nil
}

// batchAnswer is one batch request of a measured window.
type batchAnswer struct {
	body    int
	latency time.Duration
	resp    *service.BatchResponse
	err     string
	// full marks the first answer to each body, which keeps its traces
	// for the replay check; later answers to the same body drop them.
	full bool
}

// run is one measured window: the bodies in rotation until it closes.
func (e *batchEnv) run(o options, tr *tracer) ([]batchAnswer, window, error) {
	var answers []batchAnswer
	kept := make(map[int]bool)
	w, err := e.srv.measure(func() {
		deadline := time.Now().Add(o.window)
		for k := 0; time.Now().Before(deadline); k++ {
			b := k % len(e.corpus.bodies)
			id := fmt.Sprintf("pbench-%d-batch-%d", o.seed, k)
			start := time.Now()
			status, body, err := e.srv.do(http.MethodPost, "/solve/batch", e.corpus.bodies[b], id)
			a := batchAnswer{body: b, latency: time.Since(start)}
			switch {
			case err != nil:
				a.err = err.Error()
			case status != http.StatusOK:
				a.err = fmt.Sprintf("status %d", status)
			default:
				var r service.BatchResponse
				if err := json.Unmarshal(body, &r); err != nil {
					a.err = "decoding batch: " + err.Error()
					break
				}
				a.resp, a.full = &r, !kept[b]
				kept[b] = true
				if !a.full {
					for _, it := range r.Items {
						if it.Result != nil {
							it.Result.Moves = nil
						}
					}
				}
			}
			if tr != nil {
				e.srv.graftTrace(tr, id, start, a.latency)
			}
			answers = append(answers, a)
		}
	})
	return answers, w, err
}

// batchAnswers flattens the batch answers into per-item answers for the gate.
// A batch whose shape is wrong — items missing, out of request order, or
// solves and dedups other than the warmed cache and the batch's classes
// imply — is a violation of its own.
func (o *outcome) batchAnswers(c *batchCorpus, answers []batchAnswer) []answer {
	var out []answer
	for _, a := range answers {
		reqs := c.items[a.body]
		if a.resp == nil {
			o.attempted += len(reqs)
			o.failed += len(reqs)
			o.errs = append(o.errs, fmt.Sprintf("batch %d: %s", a.body, a.err))
			continue
		}
		if err := checkBatch(reqs, a.resp); err != nil {
			o.attempted++
			o.violate(fmt.Errorf("batch %d: %w", a.body, err))
			continue
		}
		for i, it := range a.resp.Items {
			ans := answer{req: reqs[i], latency: a.latency, resp: it.Result, err: it.Error, full: a.full}
			out = append(out, ans)
		}
	}
	return out
}

func checkBatch(reqs []*request, r *service.BatchResponse) error {
	if len(r.Items) != len(reqs) {
		return fmt.Errorf("%d items answered, %d sent", len(r.Items), len(reqs))
	}
	for i, it := range r.Items {
		if it.Index != i {
			return fmt.Errorf("item %d answered at position %d", it.Index, i)
		}
	}
	s := r.Summary
	classes := make(map[string]bool)
	for _, req := range reqs {
		classes[req.class] = true
	}
	if want := len(reqs) - len(classes); s.Errors == 0 && s.Shed == 0 && (s.Solves != 0 || s.Deduped != want) {
		return fmt.Errorf("summary solves %d, deduped %d; want 0 and %d", s.Solves, s.Deduped, want)
	}
	return nil
}

func runBatch(o options) (*outcome, error) {
	out := newOutcome()
	var env *batchEnv
	err := out.timeSetup(setupReps, func() (err error) {
		env, err = setupBatch(o.seed)
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
	items := out.batchAnswers(env.corpus, answers)
	ok := out.gate(items)
	out.batchMetrics(answers, ok, w, len(items))
	if o.tr == nil {
		return out, nil
	}

	traced, err := setupBatch(o.seed)
	if err != nil {
		return nil, err
	}
	tAnswers, tw, err := traced.run(o, o.tr)
	if err == nil {
		out.values["service.handler_us"] = mean(traced.srv.handlerCalls(o.tr, "/solve/batch", traced.corpus.bodies))
	}
	traced.srv.stop()
	if err != nil {
		return nil, err
	}
	tOK := out.gate(out.batchAnswers(traced.corpus, tAnswers))
	out.values["bench.trace_overhead_frac"] = overhead(out.values["throughput_rps"], float64(len(tOK))/tw.elapsed.Seconds())
	out.stageMetrics(o.tr, len(tAnswers))
	out.layerCalls(o.tr, tOK)
	return out, nil
}

// batchMetrics records the end-to-end metrics: throughput counts answered
// items, latencies are per batch request.
func (o *outcome) batchMetrics(answers []batchAnswer, ok []answer, w window, items int) {
	var lat, gaps []float64
	for _, a := range answers {
		if a.resp != nil {
			lat = append(lat, ms(a.latency))
		}
	}
	optimal := 0
	for _, a := range ok {
		if a.resp.Optimal {
			optimal++
		}
		gaps = append(gaps, a.resp.Gap)
	}
	v := o.values
	v["throughput_rps"] = float64(len(ok)) / w.elapsed.Seconds()
	v["items_per_s"] = v["throughput_rps"]
	o.latencies(lat)
	v["optimal_frac"] = ratio(float64(optimal), float64(len(ok)))
	v["gap_mean"] = mean(gaps)
	o.windowMetrics(w, items)
}
