package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rbpebble/internal/instcache"
)

// importRecorder is a fake member that answers POST /cache/import with
// status and counts the entries it was sent.
type importRecorder struct {
	ts      *httptest.Server
	addr    string
	mu      sync.Mutex
	entries []instcache.Entry
	calls   int
}

func newImportRecorder(t *testing.T, status int) *importRecorder {
	t.Helper()
	ir := &importRecorder{}
	ir.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cache/import" {
			http.NotFound(w, r)
			return
		}
		var in ImportPayload
		json.NewDecoder(r.Body).Decode(&in)
		ir.mu.Lock()
		ir.calls++
		if status == http.StatusOK {
			ir.entries = append(ir.entries, in.Entries...)
		}
		ir.mu.Unlock()
		w.WriteHeader(status)
		fmt.Fprint(w, `{"imported":1}`)
	}))
	t.Cleanup(ir.ts.Close)
	ir.addr = strings.TrimPrefix(ir.ts.URL, "http://")
	return ir
}

func (ir *importRecorder) got() (calls, entries int) {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	return ir.calls, len(ir.entries)
}

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(ts.URL, "http://")
	ts.Close()
	return addr
}

// keyOwnedInOrder finds a cache key whose owners are exactly want,
// in order, over want's members.
func keyOwnedInOrder(t *testing.T, p *Proxy, want ...string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if fmt.Sprint(p.Membership().Owners(key)) == fmt.Sprint(want) {
			return key
		}
	}
	t.Fatalf("no key owned in order %v", want)
	return ""
}

// postImport posts one entry to path on the proxy and decodes the
// delivered/dropped answer.
func postImport(t *testing.T, proxyURL, path, from, key string) map[string]uint64 {
	t.Helper()
	body, _ := json.Marshal(ImportPayload{From: from, Entries: []instcache.Entry{
		{Key: key, Value: instcache.Value{LowerScaled: 1, UpperScaled: 2, Tier: 1}},
	}})
	resp, err := http.Post(proxyURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status %d", path, resp.StatusCode)
	}
	var out map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func newRoutingProxy(t *testing.T, members ...string) (*Proxy, *httptest.Server) {
	t.Helper()
	p := NewProxy(ProxyConfig{
		Members:       members,
		ProbeInterval: -1,
		Comm:          CommConfig{AttemptTimeout: 5 * time.Second, backoffBase: time.Millisecond},
	})
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	return p, ts
}

// TestHandoffFailsOverUnreachableOwner: the handed-off entry's first
// eligible owner is unreachable but still marked healthy. The entry
// reaches the next owner, the unreachable one is demoted, and the
// sender — the key's first owner — is never a target.
func TestHandoffFailsOverUnreachableOwner(t *testing.T) {
	sender := newImportRecorder(t, http.StatusOK)
	live := newImportRecorder(t, http.StatusOK)
	dead := deadAddr(t)
	p, ts := newRoutingProxy(t, sender.addr, dead, live.addr)
	key := keyOwnedInOrder(t, p, sender.addr, dead, live.addr)

	got := postImport(t, ts.URL, "/cluster/handoff", sender.addr, key)
	if got["delivered"] != 1 || got["dropped"] != 0 {
		t.Fatalf("handoff answer %v, want delivered 1 dropped 0", got)
	}
	if _, n := live.got(); n != 1 {
		t.Fatalf("next owner received %d entries, want 1", n)
	}
	if calls, _ := sender.got(); calls != 0 {
		t.Fatalf("sender was a handoff target %d times", calls)
	}
	if healthy(p.Membership(), dead) {
		t.Fatal("unreachable owner not demoted")
	}
	dump := metricsDump(t, ts.URL)
	if metricValue(t, dump, "cluster_handoff_entries_total") != 1 || metricValue(t, dump, "cluster_handoff_dropped_total") != 0 {
		t.Fatalf("handoff counters wrong:\n%s", dump)
	}
}

// TestImportRefusalReroutesWithoutDemotion: an import target that
// answers 500 was reached, so its entries are re-routed to the next
// owner but the target stays healthy.
func TestImportRefusalReroutesWithoutDemotion(t *testing.T) {
	refusing := newImportRecorder(t, http.StatusInternalServerError)
	live := newImportRecorder(t, http.StatusOK)
	p, ts := newRoutingProxy(t, refusing.addr, live.addr)
	key := keyOwnedInOrder(t, p, refusing.addr, live.addr)

	got := postImport(t, ts.URL, "/cluster/replicate", "", key)
	if got["delivered"] != 1 || got["dropped"] != 0 {
		t.Fatalf("replicate answer %v, want delivered 1 dropped 0", got)
	}
	if calls, _ := refusing.got(); calls != 1 {
		t.Fatalf("refusing owner asked %d times, want 1", calls)
	}
	if _, n := live.got(); n != 1 {
		t.Fatalf("next owner received %d entries, want 1", n)
	}
	if !healthy(p.Membership(), refusing.addr) {
		t.Fatal("a member that answered 500 was demoted")
	}
}

// TestDebugTraceSkipsUnreachableMember: the first healthy member (in
// lookup order) is unreachable; GET /debug/trace/{id} resolves on the
// next member and demotes the unreachable one.
func TestDebugTraceSkipsUnreachableMember(t *testing.T) {
	const traceID = "trace-on-second-member"
	node := func() *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
			if r.PathValue("id") != traceID {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"trace_id":%q,"spans":[{"name":"solve"}]}`, traceID)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := node(), node()
	members := []string{strings.TrimPrefix(a.URL, "http://"), strings.TrimPrefix(b.URL, "http://")}
	sort.Strings(members)
	// Kill whichever member the lookup asks first.
	if members[0] == strings.TrimPrefix(a.URL, "http://") {
		a.Close()
	} else {
		b.Close()
	}
	p, ts := newRoutingProxy(t, members...)

	resp, err := http.Get(ts.URL + "/debug/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace lookup status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Rbproxy-Node"); got != members[1] {
		t.Fatalf("trace served by %q, want %q", got, members[1])
	}
	if healthy(p.Membership(), members[0]) {
		t.Fatal("unreachable member not demoted by the trace lookup")
	}
}

// TestDebugJobSearchMalformedBody: a member that answers the job search
// with a body that does not decode is reported as a 502, not relayed.
func TestDebugJobSearchMalformedBody(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"job":`)
	}))
	defer bad.Close()
	_, ts := newRoutingProxy(t, strings.TrimPrefix(bad.URL, "http://"))
	resp, err := http.Get(ts.URL + "/debug/jobs/job-x-1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("malformed job search status %d, want 502", resp.StatusCode)
	}
}

// TestAgentReportsRefusedReplies: a proxy that refuses the goodbye
// makes Leave fail, and a refused replication is logged.
func TestAgentReportsRefusedReplies(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/join", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, JoinResponse{TTLMS: 60000, Members: 1})
	})
	mux.HandleFunc("POST /cluster/leave", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusBadRequest, "bad leave body")
	})
	mux.HandleFunc("POST /cluster/replicate", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusInternalServerError, "replication refused")
	})
	proxy := httptest.NewServer(mux)
	defer proxy.Close()

	var mu sync.Mutex
	var logs []string
	a := NewAgent(AgentConfig{
		Proxy: strings.TrimPrefix(proxy.URL, "http://"),
		Self:  "127.0.0.1:9",
		comm:  NewComm(CommConfig{AttemptTimeout: 5 * time.Second, backoffBase: time.Millisecond}),
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Leave(ctx); err == nil {
		t.Fatal("Leave succeeded against a proxy that answered 400")
	}
	a.Replicate(instcache.Entry{Key: "k", Value: instcache.Value{Tier: 1}})
	a.Stop() // waits for the in-flight replication
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(strings.Join(logs, "\n"), "replicate") {
		t.Fatalf("refused replication not logged; logs:\n%s", strings.Join(logs, "\n"))
	}
}

func metricsDump(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}
