// Command perfbench is the repository's benchmark. One command runs one
// seeded workload — cold proofs through the solver library (exact), single
// requests to an in-process rbserve (serve) or isomorph-heavy batches
// (batch) — checks every answer, and prints its metrics by name and unit.
// The last line of standard output is the result object; the lines before
// it are a readable report.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//
// README.md lists the workloads and metrics, and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// holdoutSeed is the workload seed kept out of the benchmark's own
// development: a performance claim made on other seeds is re-checked on it.
const holdoutSeed = 7919

// setupReps is how often a server workload is set up in a run; setup_s
// is the median. The exact workload's set-up takes about a millisecond, so
// it repeats exactSetupReps times to keep that median steady.
const (
	setupReps      = 3
	exactSetupReps = 200
)

// options are one run's settings.
type options struct {
	seed   int64
	window time.Duration
	tr     *tracer // nil for an untraced run
}

var workloads = map[string]func(options) (*outcome, error){
	"exact": runExact,
	"serve": runServe,
	"batch": runBatch,
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int
	// violations are the correctness gate's findings; any fails the run.
	violations []string
	// errs are failed operations that are not wrong answers (refusals,
	// transport errors); they count as failed without failing the gate.
	errs []string
	// notes are readable report lines, such as per-instance proof times.
	notes []string
	// values holds every measured metric by name.
	values map[string]float64
	// inputDigest hashes the generated inputs.
	inputDigest string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) violate(err error) {
	o.failed++
	o.violations = append(o.violations, err.Error())
}

func (o *outcome) fail(msg string) {
	o.failed++
	o.errs = append(o.errs, msg)
}

// timeSetup sets the workload up reps times, tearing down every set-up
// but the last, and records the median set-up time as setup_s.
func (o *outcome) timeSetup(reps int, setup func() error, teardown func()) error {
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown()
		}
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	o.values["setup_s"] = median(secs)
	return nil
}

// latencies records the latency metrics of per-request samples in ms.
func (o *outcome) latencies(samples []float64) {
	t := tailOf(samples)
	o.values["latency_p50_ms"] = median(samples)
	o.values["latency_tail_ms"] = t.value
	o.values["latency_tail_pct"] = t.pct
	o.values["latency_samples"] = float64(t.n)
	o.values["latency_geomean_ms"] = geomean(samples)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one --record line: a result with its run's identity, the
// input of compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Stamp    stamp  `json:"stamp"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: exact, serve or batch")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates byte-identical inputs")
	seconds := fs.Int("seconds", 12, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run, which reports the per-layer metrics")
	spansPath := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-WORKLOAD-SEED.json)")
	record := fs.String("record", "", "append the result and stamp to this JSONL file, the input of compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload exact|serve|batch [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--record FILE]")
		return 2
	}
	opts := options{seed: *seed, window: time.Duration(*seconds) * time.Second}
	if *traceFlag == 1 {
		opts.tr = newTracer()
	}
	out, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out.values["error_frac"] = ratio(float64(out.failed), float64(out.attempted))

	st := hostStamp(*name, *seed, *seconds, opts.tr != nil, out.inputDigest)
	report(stdout, st, out)
	if opts.tr != nil {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		}
		if err := opts.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		opts.tr.summary(stdout)
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}

	defs := endToEnd
	if opts.tr != nil {
		defs = perLayer
	}
	res := result{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := out.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if *record != "" {
		rec := runRecord{Workload: *name, Seed: *seed, Traced: opts.tr != nil, Stamp: st, result: res}
		if err := appendRecord(*record, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: recording: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the readable part of the output: the stamp, the gate's
// findings, and every measured metric with its unit.
func report(w io.Writer, st stamp, out *outcome) {
	b, _ := json.Marshal(st)
	fmt.Fprintf(w, "# stamp %s\n", b)
	fmt.Fprintf(w, "# attempted %d, failed %d, gate violations %d\n", out.attempted, out.failed, len(out.violations))
	for i, v := range out.violations {
		if i == 20 {
			fmt.Fprintf(w, "# ... %d more violations\n", len(out.violations)-i)
			break
		}
		fmt.Fprintf(w, "# VIOLATION %s\n", v)
	}
	for i, e := range out.errs {
		if i == 10 {
			fmt.Fprintf(w, "# ... %d more errors\n", len(out.errs)-i)
			break
		}
		fmt.Fprintf(w, "# error %s\n", e)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := out.values[d.name]; ok {
				fmt.Fprintf(w, "%-34s %16.6f %s\n", d.name, v, d.unit)
			}
		}
	}
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
