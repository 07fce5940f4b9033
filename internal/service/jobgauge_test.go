package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/daggen"
	"rbpebble/internal/solve"
)

// scrapeMetrics returns the raw /metrics body.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// TestJobLowerBoundGauge: while an async job runs, /metrics must carry
// a per-job rbserve_job_lower_bound gauge fed by the orchestrator's
// streamed certified bounds, and the gauge must disappear once the job
// finishes. The solver is stubbed so the test controls both the
// streamed values and the job's lifetime.
func TestJobLowerBoundGauge(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1})
	defer s.Close()
	streamed := make(chan struct{})
	gate := make(chan struct{})
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		if opts.OnProgress == nil {
			t.Error("async job solve got no OnProgress hook")
		} else {
			opts.OnProgress(anytime.Snapshot{UpperScaled: 31, LowerScaled: 7, Source: "astar"})
			opts.OnProgress(anytime.Snapshot{UpperScaled: 31, LowerScaled: 9, Source: "astar"})
		}
		close(streamed)
		<-gate
		return anytime.Solve(ctx, p, anytime.Options{})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3,"async":true}`, dagJSON(t, daggen.Pyramid(4)))
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	<-streamed
	m := scrapeMetrics(t, ts)
	want := `rbserve_job_lower_bound{job="`
	line := ""
	for _, l := range strings.Split(m, "\n") {
		if strings.HasPrefix(l, want) {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no rbserve_job_lower_bound gauge while job running:\n%s", m)
	}
	if !strings.HasSuffix(line, "} 9") {
		t.Fatalf("gauge did not track the latest streamed bound: %q", line)
	}

	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		if !strings.Contains(scrapeMetrics(t, ts), "rbserve_job_lower_bound{") {
			break // finished jobs drop their gauge
		}
		time.Sleep(5 * time.Millisecond)
	}
}
