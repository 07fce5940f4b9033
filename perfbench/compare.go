package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain is `perfbench compare [-bench BENCHMARK.json] OLD NEW`. OLD
// and NEW are sets of runs recorded with --record (JSONL). For each
// workload and metric it prints both sides' median and quartiles, the
// pairs the new side won, whether the new side shows a gain, and the
// regression verdict against the metric's bound. It exits 1 when any
// metric regressed.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition: each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] OLD.jsonl NEW.jsonl")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	old, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	neu, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	regressed := false
	fmt.Fprintf(w, "%-8s %-34s %-8s %30s %30s %7s %-5s %s\n",
		"workload", "metric", "unit", "old median [q1, q3] n", "new median [q1, q3] n", "won", "gain", "regression")
	for _, r := range compareRuns(spec, old, neu) {
		fmt.Fprintf(w, "%-8s %-34s %-8s %30s %30s %3d/%-3d %-5t %s\n",
			r.workload, r.metric.Name, r.metric.Unit, side(r.old), side(r.neu), r.won, r.pairs, r.gain, r.regression)
		regressed = regressed || r.regression == "REGRESSION"
	}
	if regressed {
		return 1
	}
	return 0
}

func side(v []float64) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", med, q1, q3, len(v))
}

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func loadRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// comparison is one workload × metric row.
type comparison struct {
	workload   string
	metric     specMetric
	old, neu   []float64
	pairs, won int
	gain       bool
	regression string
}

// compareRuns compares every metric on every workload both sides ran:
// end-to-end metrics over untraced runs, per-layer metrics over traced
// ones. Runs pair by seed.
func compareRuns(spec benchSpec, old, neu []runRecord) []comparison {
	var out []comparison
	for _, wl := range spec.Workloads {
		for _, group := range []struct {
			traced  bool
			metrics []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			for _, m := range group.metrics {
				ov, oSeeds := values(old, wl.Name, group.traced, m.Name)
				nv, nSeeds := values(neu, wl.Name, group.traced, m.Name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				c := comparison{workload: wl.Name, metric: m, old: ov, neu: nv}
				c.pairs, c.won, c.gain, c.regression = judge(m, ov, nv, pairBySeed(ov, oSeeds, nv, nSeeds))
				out = append(out, c)
			}
		}
	}
	return out
}

func values(runs []runRecord, workload string, traced bool, metric string) ([]float64, []int64) {
	var vs []float64
	var seeds []int64
	for _, r := range runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if mv, ok := r.Metrics[metric]; ok {
			vs = append(vs, mv.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vs, seeds
}

// pairBySeed pairs each old run with the new run of the same seed.
func pairBySeed(ov []float64, oSeeds []int64, nv []float64, nSeeds []int64) [][2]float64 {
	bySeed := make(map[int64]float64, len(nv))
	for i, s := range nSeeds {
		bySeed[s] = nv[i]
	}
	var pairs [][2]float64
	for i, s := range oSeeds {
		if n, ok := bySeed[s]; ok {
			pairs = append(pairs, [2]float64{ov[i], n})
			delete(bySeed, s)
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	return pairs
}

// judge applies the measurement rules to one workload × metric. A gain
// needs at least ten pairs, nine tenths of them won (ties count for
// neither side), and a median shift in the better direction larger than
// the old side's interquartile range. A regression is a median worse than
// the old one by more than the metric's bound; where the old side's own
// spread exceeds the bound the result is unresolved, unless every new run
// is better than every old run.
func judge(m specMetric, old, neu []float64, pairs [][2]float64) (n, won int, gain bool, regression string) {
	lower := m.Better == "lower"
	better := func(a, b float64) bool {
		if lower {
			return a < b
		}
		return a > b
	}
	for _, p := range pairs {
		if better(p[1], p[0]) {
			won++
		}
	}
	q1, oMed, q3 := quartiles(old)
	_, nMed, _ := quartiles(neu)
	shift := nMed - oMed // positive: the new side is better
	if lower {
		shift = -shift
	}
	gain = len(pairs) >= 10 && float64(won) >= 0.9*float64(len(pairs)) && shift > q3-q1
	if m.Bound == nil {
		return len(pairs), won, gain, "n/a"
	}
	worse := ratio(-shift, math.Abs(oMed))
	spread := ratio(q3-q1, math.Abs(oMed))
	switch {
	case worse > *m.Bound:
		regression = "REGRESSION"
	case spread > *m.Bound && !allBetter(neu, old, better):
		regression = "unresolved"
	default:
		regression = "ok"
	}
	return len(pairs), won, gain, regression
}

// allBetter reports whether every value of a is better than every value
// of b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
