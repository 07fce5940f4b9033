package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/daggen"
	"rbpebble/internal/obs"
	"rbpebble/internal/solve"
)

// TestJobSearchDebug: while an async job runs, GET /debug/jobs/{id}/search
// must serve the latest live engine snapshot streamed by the
// orchestrator (open-queue histogram included), /metrics must carry the
// per-job search gauges, and after completion the last snapshot must
// stay retrievable alongside the terminal status. The solver is stubbed
// so the test controls the snapshots and the job's lifetime.
func TestJobSearchDebug(t *testing.T) {
	s := New(Config{HeavyLaneWorkers: 1})
	defer s.Close()
	streamed := make(chan struct{})
	gate := make(chan struct{})
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		if opts.OnSearch == nil {
			t.Error("async job solve got no OnSearch hook")
		} else {
			opts.OnSearch(obs.SearchSnapshot{
				Seq: 1, Engine: "astar", Expanded: 1000, Rate: 50000,
				FrontierSize: 40, TableBytes: 1 << 20,
				OpenBuckets: []obs.SearchBucket{{F: 9, Count: 30}, {F: 10, Count: 10}},
			})
			opts.OnSearch(obs.SearchSnapshot{
				Seq: 2, Engine: "astar", Expanded: 2500, Rate: 61000,
				FrontierSize: 55, TableBytes: 2 << 20,
				OpenBuckets: []obs.SearchBucket{{F: 10, Count: 50}, {F: 11, Count: 5}},
			})
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
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	<-streamed
	var sd SearchDebugResponse
	getJSON(t, ts.URL+"/debug/jobs/"+jr.ID+"/search", &sd)
	if sd.Job != jr.ID || sd.Status != "running" {
		t.Fatalf("search debug envelope = %+v, want running job %s", sd, jr.ID)
	}
	if sd.Snapshot == nil || sd.Snapshot.Seq != 2 || sd.Snapshot.Expanded != 2500 ||
		len(sd.Snapshot.OpenBuckets) != 2 || sd.Snapshot.OpenBuckets[0] != (obs.SearchBucket{F: 10, Count: 50}) {
		t.Fatalf("search debug did not serve the latest snapshot: %+v", sd.Snapshot)
	}

	m := scrapeMetrics(t, ts)
	for _, want := range []string{
		fmt.Sprintf("rbserve_job_expansion_rate{job=%q} 61000", jr.ID),
		fmt.Sprintf("rbserve_job_table_bytes{job=%q} %d", jr.ID, 2<<20),
		fmt.Sprintf("rbserve_job_frontier_size{job=%q} 55", jr.ID),
		"rbserve_build_info{version=",
		"rbserve_uptime_seconds ",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q while job running:\n%s", want, m)
		}
	}

	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		getJSON(t, ts.URL+"/debug/jobs/"+jr.ID+"/search", &sd)
		if sd.Status == "done" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The last snapshot outlives the solve for post-mortem inspection,
	// but the live gauges drop with the running state.
	if sd.Snapshot == nil || sd.Snapshot.Seq != 2 {
		t.Fatalf("finished job lost its last snapshot: %+v", sd.Snapshot)
	}
	if m := scrapeMetrics(t, ts); strings.Contains(m, "rbserve_job_expansion_rate{") {
		t.Error("search gauges survived job completion")
	}

	resp, err = http.Get(ts.URL + "/debug/jobs/nope/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestEventSinkJSONL: with Config.EventSink set, every snapshot the
// orchestrator streams — sync solves included — lands in the event log
// as one "snapshot" row carrying the solve's trace ID, the solve's
// telemetry record lands as one "solve" row with the same trace ID,
// and the solve's peak snapshot values land on its telemetry record.
func TestEventSinkJSONL(t *testing.T) {
	var sink bytes.Buffer
	s := New(Config{EventSink: &sink})
	defer s.Close()
	s.solveFn = func(ctx context.Context, p solve.Problem, opts anytime.Options) (anytime.Result, error) {
		if opts.OnSearch == nil {
			t.Error("EventSink configured but solve got no OnSearch hook")
		} else {
			opts.OnSearch(obs.SearchSnapshot{Seq: 1, Engine: "astar", Expanded: 100, FrontierSize: 12})
			opts.OnSearch(obs.SearchSnapshot{Seq: 2, Engine: "astar", Expanded: 900, FrontierSize: 30})
		}
		res, err := anytime.Solve(ctx, p, anytime.Options{})
		res.PeakFrontier, res.PeakRate = 30, 4200
		return res, err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, daggen.Pyramid(4)))
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	if traceID == "" {
		t.Fatal("response carries no trace ID")
	}

	var snapshots, solves []obs.EventRow
	for i, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var row obs.EventRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("sink line %d is not JSON: %v", i, err)
		}
		switch row.Kind {
		case "snapshot":
			snapshots = append(snapshots, row)
		case "solve":
			solves = append(solves, row)
		default:
			t.Fatalf("sink line %d has kind %q", i, row.Kind)
		}
	}
	if len(snapshots) != 2 {
		t.Fatalf("sink got %d snapshot rows, want 2:\n%s", len(snapshots), sink.String())
	}
	for i, row := range snapshots {
		if row.Snapshot == nil || row.Snapshot.Seq != i+1 || row.TraceID != traceID || row.Time.IsZero() {
			t.Errorf("snapshot row %d = %+v, want seq %d with trace %s and time", i, row, i+1, traceID)
		}
	}
	if len(solves) != 1 {
		t.Fatalf("sink got %d solve rows, want 1:\n%s", len(solves), sink.String())
	}
	if row := solves[0]; row.Solve == nil || row.TraceID != traceID || row.Solve.TraceID != traceID ||
		row.Time.IsZero() || row.Solve.Disposition != "cold" {
		t.Errorf("solve row = %+v, want the cold solve's record with trace %s and time", row, traceID)
	}

	var records SolvesDebugResponse
	getJSON(t, ts.URL+"/debug/solves", &records)
	if len(records.Records) == 0 {
		t.Fatal("no telemetry record")
	}
	rec := records.Records[0]
	if rec.PeakFrontier != 30 || rec.PeakRate != 4200 {
		t.Errorf("telemetry peaks (%d, %f), want (30, 4200)", rec.PeakFrontier, rec.PeakRate)
	}
}
