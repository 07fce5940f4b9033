package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptedRT is a RoundTripper that plays back a fixed sequence of
// outcomes, making retry behavior deterministic without sockets.
type scriptedRT struct {
	mu      sync.Mutex
	calls   int
	outcome []error // nil = 200 OK; non-nil = transport error
}

func (rt *scriptedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	i := rt.calls
	rt.calls++
	rt.mu.Unlock()
	var err error
	if i < len(rt.outcome) {
		err = rt.outcome[i]
	}
	if err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader("ok")),
		Header:     http.Header{},
		Request:    req,
	}, nil
}

func (rt *scriptedRT) count() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.calls
}

func dialRefused() error {
	return &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
}

func writeFailed() error {
	return &net.OpError{Op: "write", Net: "tcp", Err: errors.New("broken pipe")}
}

func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func newTestComm(rt *scriptedRT, cfg CommConfig) *CommClient {
	cfg.Client = &http.Client{Transport: rt}
	if cfg.sleep == nil {
		cfg.sleep = noSleep
	}
	return NewComm(cfg)
}

func TestCommGetRetriesTransportFailures(t *testing.T) {
	rt := &scriptedRT{outcome: []error{writeFailed(), writeFailed(), nil}}
	c := newTestComm(rt, CommConfig{maxAttempts: 3})
	resp, err := c.Get(context.Background(), "node:1", "/healthz")
	if err != nil {
		t.Fatalf("Get after retries: %v", err)
	}
	resp.Body.Close()
	if got := rt.count(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

func TestCommGetExhaustsBudget(t *testing.T) {
	rt := &scriptedRT{outcome: []error{writeFailed(), writeFailed(), writeFailed(), nil}}
	c := newTestComm(rt, CommConfig{maxAttempts: 3, breakerThreshold: 100})
	if _, err := c.Get(context.Background(), "node:1", "/healthz"); err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	if got := rt.count(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (budget)", got)
	}
}

func TestCommPostNotRetriedAfterBytesSent(t *testing.T) {
	// A write error means request bytes may have reached the node: a
	// replay could double-submit, so the POST must fail after 1 attempt.
	rt := &scriptedRT{outcome: []error{writeFailed(), nil}}
	c := newTestComm(rt, CommConfig{maxAttempts: 3})
	if _, err := c.Post(context.Background(), "node:1", "/solve", "application/json", []byte("{}")); err == nil {
		t.Fatal("want error, POST must not be replayed after a write failure")
	}
	if got := rt.count(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no replay)", got)
	}
}

func TestCommPostRetriedOnDialError(t *testing.T) {
	// Connection refused happens before any bytes are sent — safe to
	// retry even for a POST.
	rt := &scriptedRT{outcome: []error{dialRefused(), nil}}
	c := newTestComm(rt, CommConfig{maxAttempts: 3})
	resp, err := c.Post(context.Background(), "node:1", "/solve", "application/json", []byte("{}"))
	if err != nil {
		t.Fatalf("Post after dial retry: %v", err)
	}
	resp.Body.Close()
	if got := rt.count(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

func TestCommBreakerOpensAndFailsFast(t *testing.T) {
	rt := &scriptedRT{outcome: []error{writeFailed(), writeFailed(), writeFailed(), writeFailed()}}
	var opened []string
	c := newTestComm(rt, CommConfig{
		maxAttempts:      1,
		breakerThreshold: 2,
		breakerCooldown:  time.Hour,
		OnBreakerOpen:    func(m string) { opened = append(opened, m) },
	})
	ctx := context.Background()
	c.Get(ctx, "node:1", "/x")
	c.Get(ctx, "node:1", "/x")
	if !c.BreakerOpen("node:1") {
		t.Fatal("breaker should be open after 2 consecutive failures")
	}
	if len(opened) != 1 || opened[0] != "node:1" {
		t.Fatalf("OnBreakerOpen calls = %v, want one for node:1", opened)
	}
	before := rt.count()
	if _, err := c.Get(ctx, "node:1", "/x"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if rt.count() != before {
		t.Fatal("open breaker must fail fast without a network attempt")
	}
	if got := c.OpenBreakers(); len(got) != 1 || got[0] != "node:1" {
		t.Fatalf("OpenBreakers = %v", got)
	}
	c.Forget("node:1")
	if c.BreakerOpen("node:1") {
		t.Fatal("Forget should clear breaker state")
	}
}

func TestCommBreakerHalfOpenRecovery(t *testing.T) {
	rt := &scriptedRT{outcome: []error{writeFailed(), writeFailed(), nil}}
	clock := time.Now()
	c := newTestComm(rt, CommConfig{
		maxAttempts:      1,
		breakerThreshold: 2,
		breakerCooldown:  time.Second,
		now:              func() time.Time { return clock },
	})
	ctx := context.Background()
	c.Get(ctx, "node:1", "/x")
	c.Get(ctx, "node:1", "/x")
	if !c.BreakerOpen("node:1") {
		t.Fatal("breaker should be open")
	}
	if _, err := c.Get(ctx, "node:1", "/x"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("inside cooldown: err = %v, want ErrBreakerOpen", err)
	}
	clock = clock.Add(2 * time.Second) // cooldown elapsed: admit a trial
	resp, err := c.Get(ctx, "node:1", "/x")
	if err != nil {
		t.Fatalf("half-open trial: %v", err)
	}
	resp.Body.Close()
	if c.BreakerOpen("node:1") {
		t.Fatal("successful trial should close the breaker")
	}
}

func TestCommBackoffBounds(t *testing.T) {
	c := NewComm(CommConfig{backoffBase: 100 * time.Millisecond, backoffMax: 400 * time.Millisecond})
	for attempt := 1; attempt <= 5; attempt++ {
		want := 100 * time.Millisecond << (attempt - 1)
		if want > 400*time.Millisecond {
			want = 400 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt)
			if d < want/2 || d > want {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

// TestProbeRespectsBreaker: health probes go through the proxy's
// CommClient, so its breaker is the prober's only backoff. Inside the
// cooldown an open breaker fails the probe with no round trip and the
// member is marked down; after it, one successful half-open probe
// closes the breaker and marks the member up.
func TestProbeRespectsBreaker(t *testing.T) {
	rt := &scriptedRT{outcome: []error{dialRefused(), dialRefused()}} // then 200s
	clock := time.Now()
	comm := newTestComm(rt, CommConfig{
		maxAttempts:      1,
		breakerThreshold: 2,
		breakerCooldown:  time.Minute,
		now:              func() time.Time { return clock },
	})
	ms := NewMembership(time.Minute)
	ms.AddStatic("node:1")
	p := &Prober{ms: ms, comm: comm}

	p.ProbeOnce()
	p.ProbeOnce()
	if !comm.BreakerOpen("node:1") || healthy(ms, "node:1") {
		t.Fatal("two failed probes should open the breaker and mark the member down")
	}

	ms.SetStatus("node:1", true, false) // a stale "up" the next probe must correct
	before := rt.count()
	p.ProbeOnce()
	if rt.count() != before {
		t.Fatalf("probe inside the cooldown made %d round trips, want 0", rt.count()-before)
	}
	if healthy(ms, "node:1") {
		t.Fatal("probe through an open breaker should mark the member down")
	}

	clock = clock.Add(time.Minute + time.Second) // cooldown elapsed: half-open
	p.ProbeOnce()
	if rt.count() != before+1 {
		t.Fatalf("half-open probe made %d round trips, want 1", rt.count()-before)
	}
	if comm.BreakerOpen("node:1") || !healthy(ms, "node:1") {
		t.Fatal("a successful half-open probe should close the breaker and mark the member up")
	}
}
