package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/service"
	"rbpebble/internal/solve"
)

// A wrong expected optimum must fail the exact run; the right one passes.
func TestWrongOptimumFailsRun(t *testing.T) {
	c := class{"pyramid3-r3", daggen.Pyramid(3), "oneshot", 3, 0}
	req, err := c.request(c.g, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solve.Exact(req.p, solve.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := sol.Result.Cost.Scaled(req.p.Model)
	req.limit = 10 * time.Second
	for _, tc := range []struct {
		opt     int64
		correct bool
	}{{opt, true}, {opt + 1, false}} {
		req.opt = tc.opt
		out := newOutcome()
		measureExact(out, []*request{req}, options{window: time.Millisecond})
		if got := len(out.violations) == 0; got != tc.correct || out.attempted != 1 {
			t.Errorf("expected optimum %d (true %d): correct %v after %d proofs, want %v; violations %v",
				tc.opt, opt, got, out.attempted, tc.correct, out.violations)
		}
	}
}

// checkAnswer rejects each way a service answer can be wrong.
func TestCheckAnswerRejects(t *testing.T) {
	c := class{"pyramid3-r3", daggen.Pyramid(3), "oneshot", 3, 0}
	req, err := c.request(c.g, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	good, msg := decodeAnswer(srv.do("POST", "/solve", req.body, ""))
	if good == nil {
		t.Fatal(msg)
	}
	if err := checkAnswer(req, good); err != nil {
		t.Fatalf("a correct answer failed the gate: %v", err)
	}
	req.opt = int64(good.Upper)

	mutate := func(f func(r *service.SolveResponse)) *service.SolveResponse {
		var r service.SolveResponse
		b, _ := json.Marshal(good)
		json.Unmarshal(b, &r)
		f(&r)
		return &r
	}
	for name, bad := range map[string]*service.SolveResponse{
		"inverted interval":  mutate(func(r *service.SolveResponse) { r.Lower = r.Upper + 1 }),
		"open but optimal":   mutate(func(r *service.SolveResponse) { r.Lower = r.Upper - 1 }),
		"excludes optimum":   mutate(func(r *service.SolveResponse) { r.Upper, r.Lower, r.Optimal = r.Upper-1, r.Upper-1, true }),
		"no trace":           mutate(func(r *service.SolveResponse) { r.Moves = nil }),
		"trace cost differs": mutate(func(r *service.SolveResponse) { r.Moves = append(r.Moves, r.Moves[0]) }),
	} {
		if err := checkAnswer(req, bad); err == nil {
			t.Errorf("%s: passed the gate", name)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// benchmark reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	for _, c := range []struct {
		json []specMetric
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%d metrics in BENCHMARK.json, %d reported", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
