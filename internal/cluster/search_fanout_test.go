package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rbpebble/internal/service"
)

// TestDebugJobSearchFanout: GET /debug/jobs/{id}/search on the proxy
// must find the one node that owns the job (the others 404), relay its
// snapshot, and stamp the owning member into the body and the
// X-Rbproxy-Node header. A job no node knows stays a 404.
func TestDebugJobSearchFanout(t *testing.T) {
	node := func(jobID string) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"ok":true}`)
		})
		mux.HandleFunc("GET /debug/jobs/{id}/search", func(w http.ResponseWriter, r *http.Request) {
			if r.PathValue("id") != jobID {
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprint(w, `{"error":"unknown job"}`)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(service.SearchDebugResponse{Job: jobID, Status: "running"})
		})
		return httptest.NewServer(mux)
	}
	n1 := node("job-aaa-1")
	defer n1.Close()
	n2 := node("job-bbb-1")
	defer n2.Close()

	owner := strings.TrimPrefix(n2.URL, "http://")
	members := []string{strings.TrimPrefix(n1.URL, "http://"), owner}
	p := NewProxy(ProxyConfig{Members: members, ProbeInterval: -1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/jobs/job-bbb-1/search")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fan-out status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Rbproxy-Node"); got != owner {
		t.Errorf("X-Rbproxy-Node = %q, want %q", got, owner)
	}
	var body service.SearchDebugResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Job != "job-bbb-1" || body.Status != "running" || body.Node != owner {
		t.Errorf("relayed body = %+v, want job-bbb-1 running on %s", body, owner)
	}

	resp, err = http.Get(ts.URL + "/debug/jobs/job-nowhere/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-everywhere status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsMergeSearchGauges: the new search-introspection gauges
// take both merge paths — rbserve_build_info keeps its labels (counting
// nodes per build), while the per-job search gauges sum label-stripped
// into cluster_rbserve_job_* like the lower-bound gauge.
func TestMetricsMergeSearchGauges(t *testing.T) {
	node := func(metrics string) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"ok":true}`)
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, metrics)
		})
		return httptest.NewServer(mux)
	}
	n1 := node("rbserve_build_info{version=\"v1\",go_version=\"go1.24\"} 1\n" +
		"rbserve_uptime_seconds 120\n" +
		"rbserve_job_expansion_rate{job=\"job-a-1\"} 50000\n" +
		"rbserve_job_table_bytes{job=\"job-a-1\"} 1000\n" +
		"rbserve_job_frontier_size{job=\"job-a-1\"} 40\n")
	defer n1.Close()
	n2 := node("rbserve_build_info{version=\"v1\",go_version=\"go1.24\"} 1\n" +
		"rbserve_uptime_seconds 80\n" +
		"rbserve_job_expansion_rate{job=\"job-b-1\"} 25000\n" +
		"rbserve_job_table_bytes{job=\"job-b-1\"} 500\n" +
		"rbserve_job_frontier_size{job=\"job-b-1\"} 10\n")
	defer n2.Close()

	members := []string{
		strings.TrimPrefix(n1.URL, "http://"),
		strings.TrimPrefix(n2.URL, "http://"),
	}
	p := NewProxy(ProxyConfig{Members: members, ProbeInterval: -1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

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
	body := b.String()
	for _, want := range []string{
		"cluster_rbserve_build_info{version=\"v1\",go_version=\"go1.24\"} 2\n",
		"cluster_rbserve_uptime_seconds 200\n",
		"cluster_rbserve_job_expansion_rate 75000\n",
		"cluster_rbserve_job_table_bytes 1500\n",
		"cluster_rbserve_job_frontier_size 50\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("merged metrics missing %q:\n%s", want, body)
		}
	}
}
