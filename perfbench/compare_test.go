package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaledRuns(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * f
	}
	return out
}

func pairs(old, neu []float64) [][2]float64 {
	p := make([][2]float64, len(old))
	for i := range old {
		p[i] = [2]float64{old[i], neu[i]}
	}
	return p
}

func TestJudgeVerdicts(t *testing.T) {
	bound := 0.1
	lat := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	rps := specMetric{Name: "throughput_rps", Better: "higher", Bound: &bound}
	layer := specMetric{Name: "solve.astar.expanded", Better: "lower"}
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3}
	noisy := []float64{70, 130, 80, 120, 90, 110, 75, 125, 100, 100}
	// Nine of ten pairs clearly better, one worse: still a gain.
	mostlyFaster := scaledRuns(base, 0.8)
	mostlyFaster[3] = 101
	// Eight of ten better: the median moved, but that is no gain.
	eightOfTen := scaledRuns(base, 0.8)
	eightOfTen[3], eightOfTen[4] = 101, 100

	for _, c := range []struct {
		name       string
		m          specMetric
		old, neu   []float64
		won        int
		gain       bool
		regression string
	}{
		{"faster", lat, base, scaledRuns(base, 0.8), 10, true, "ok"},
		{"nine of ten", lat, base, mostlyFaster, 9, true, "ok"},
		{"eight of ten", lat, base, eightOfTen, 8, false, "ok"},
		{"slower beyond bound", lat, base, scaledRuns(base, 1.2), 0, false, "REGRESSION"},
		{"slower within bound", lat, base, scaledRuns(base, 1.05), 0, false, "ok"},
		{"higher is better", rps, base, scaledRuns(base, 1.2), 10, true, "ok"},
		{"throughput drop", rps, base, scaledRuns(base, 0.8), 0, false, "REGRESSION"},
		{"spread wider than bound", lat, noisy, noisy, 0, false, "unresolved"},
		{"all better despite spread", lat, noisy, scaledRuns(noisy, 0.5), 10, true, "ok"},
		{"no bound", layer, base, scaledRuns(base, 2), 0, false, "n/a"},
	} {
		n, won, gain, regression := judge(c.m, c.old, c.neu, pairs(c.old, c.neu))
		if n != len(c.old) || won != c.won || gain != c.gain || regression != c.regression {
			t.Errorf("%s: pairs %d won %d gain %v regression %s; want won %d gain %v regression %s",
				c.name, n, won, gain, regression, c.won, c.gain, c.regression)
		}
	}
	// Fewer than ten pairs can never show a gain.
	if _, _, gain, _ := judge(lat, base[:9], scaledRuns(base[:9], 0.5), pairs(base[:9], scaledRuns(base[:9], 0.5))); gain {
		t.Error("nine pairs showed a gain")
	}
}

// compare reads recorded runs, pairs them by seed and exits 1 on a
// regression.
func TestCompareRecordedRuns(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads":[{"name":"serve","why":"w"}],
		"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"instcache.probe_us","unit":"us","better":"lower"}]}`
	write := func(name string, latency float64, seeds int) string {
		var buf bytes.Buffer
		for s := 1; s <= seeds; s++ {
			for _, traced := range []bool{false, true} {
				rec := runRecord{Workload: "serve", Seed: int64(s), Traced: traced, result: result{
					Correct: true, Attempted: 1,
					Metrics: map[string]metricValue{
						"latency_p50_ms":     {Value: latency + float64(s)/100, Unit: "ms"},
						"instcache.probe_us": {Value: 1, Unit: "us"},
					},
				}}
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(append(line, '\n'))
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	old := write("old.jsonl", 10, 10)
	same := write("same.jsonl", 10, 10)
	slow := write("slow.jsonl", 13, 10)

	var out bytes.Buffer
	if code := compareMain([]string{"-bench", specPath, old, same}, &out); code != 0 {
		t.Fatalf("same runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-bench", specPath, old, slow}, &out); code != 1 {
		t.Fatalf("slower runs: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "instcache.probe_us") {
		t.Errorf("report lacks the regression or the per-layer row:\n%s", out.String())
	}
}
