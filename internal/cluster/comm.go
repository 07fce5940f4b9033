package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"rbpebble/internal/obs"
)

// ErrBreakerOpen is returned without any network attempt when the
// target member's circuit breaker is open: the member failed several
// consecutive calls recently and its cooldown has not elapsed. Callers
// treat it like a connection failure (skip the member, try the key's
// next owner) — the point of the breaker is to make that decision in
// nanoseconds instead of a dial timeout.
var ErrBreakerOpen = errors.New("cluster: circuit breaker open")

// CommConfig tunes the hardened proxy->node HTTP client. Zero values
// select the defaults.
//
// The retry and breaker policy is fixed: at most 3 attempts per call,
// a jittered exponential backoff between them from 50ms capped at 2s,
// and a per-member breaker that opens after 4 consecutive transport
// failures and fails fast for 5s before admitting one half-open trial
// call. Idempotent calls (GET, DELETE) are retried on any transport
// error; POSTs only on dial-level errors (connection refused, no
// route) where no request bytes were sent — replaying a POST that may
// have been processed could double-submit an async job. A successful
// trial closes the breaker, a failed one re-arms the cooldown.
type CommConfig struct {
	// Client performs the individual attempts. Default: a plain client
	// with no overall timeout — per-attempt deadlines come from
	// AttemptTimeout, and an overall bound from the caller's context.
	Client *http.Client
	// AttemptTimeout bounds each individual attempt (default: the
	// Client's Timeout when set, else 60s — it must outlive the longest
	// node-side solve deadline).
	AttemptTimeout time.Duration
	// OnBreakerOpen fires once per closed->open transition (outside the
	// breaker lock). The proxy uses it to demote the member in its
	// member table immediately instead of waiting for the next probe.
	OnBreakerOpen func(member string)

	// The policy above, as test seams: maxAttempts bounds the attempts
	// per call; attempt i sleeps uniform[d/2, d) where
	// d = min(backoffBase << (i-1), backoffMax); breakerThreshold
	// consecutive transport failures open a member's breaker for
	// breakerCooldown.
	maxAttempts             int
	backoffBase, backoffMax time.Duration
	breakerThreshold        int
	breakerCooldown         time.Duration
	// sleep and now are test seams; nil selects real time.
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time
}

// breaker is one member's circuit-breaker state.
type breaker struct {
	fails int
	open  bool
	until time.Time // while open: next moment a half-open trial is admitted
}

// CommClient is the single client wrapper every proxy->node HTTP call
// goes through: per-attempt timeouts, a bounded retry budget with
// jittered exponential backoff (idempotent calls retried freely, POSTs
// only on pre-send dial errors), and a per-member circuit breaker that
// fails fast on flapping members. Safe for concurrent use.
type CommClient struct {
	cfg    CommConfig
	client *http.Client

	mu       sync.Mutex
	breakers map[string]*breaker
}

// NewComm returns a CommClient with cfg's policy.
func NewComm(cfg CommConfig) *CommClient {
	cfg = cfg.withDefaults()
	return &CommClient{cfg: cfg, client: cfg.Client, breakers: make(map[string]*breaker)}
}

func (cfg CommConfig) withDefaults() CommConfig {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.AttemptTimeout <= 0 {
		if cfg.Client.Timeout > 0 {
			cfg.AttemptTimeout = cfg.Client.Timeout
		} else {
			cfg.AttemptTimeout = 60 * time.Second
		}
	}
	if cfg.maxAttempts <= 0 {
		cfg.maxAttempts = 3
	}
	if cfg.backoffBase <= 0 {
		cfg.backoffBase = 50 * time.Millisecond
	}
	if cfg.backoffMax <= 0 {
		cfg.backoffMax = 2 * time.Second
	}
	if cfg.breakerThreshold <= 0 {
		cfg.breakerThreshold = 4
	}
	if cfg.breakerCooldown <= 0 {
		cfg.breakerCooldown = 5 * time.Second
	}
	if cfg.sleep == nil {
		cfg.sleep = sleepCtx
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return cfg
}

// Get issues GET http://member+path with the retry/breaker policy
// (idempotent: retried on any transport failure).
func (c *CommClient) Get(ctx context.Context, member, path string) (*http.Response, error) {
	return c.Do(ctx, member, http.MethodGet, path, "", nil)
}

// Post issues POST http://member+path with the retry/breaker policy.
// The body is a byte slice (not a stream) so retries can replay it —
// but POSTs are only retried on dial-level errors where no bytes were
// sent.
func (c *CommClient) Post(ctx context.Context, member, path, contentType string, body []byte) (*http.Response, error) {
	return c.Do(ctx, member, http.MethodPost, path, contentType, body)
}

// Do issues one call under the full policy. GET and DELETE are treated
// as idempotent.
func (c *CommClient) Do(ctx context.Context, member, method, path, contentType string, body []byte) (*http.Response, error) {
	idempotent := method == http.MethodGet || method == http.MethodDelete || method == http.MethodHead
	if !c.allow(member) {
		return nil, fmt.Errorf("%s: %w", member, ErrBreakerOpen)
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.maxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.cfg.sleep(ctx, c.backoff(attempt)); err != nil {
				break // caller context canceled mid-backoff
			}
			if !c.allow(member) {
				lastErr = fmt.Errorf("%s: %w", member, ErrBreakerOpen)
				break
			}
		}
		actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(actx, method, "http://"+member+path, rd)
		if err != nil {
			cancel()
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		// Every proxy->node call carries the caller's trace ID, so the
		// node's spans (and every retried attempt's) correlate under one
		// trace across the fleet.
		if id := obs.TraceIDFrom(ctx); id != "" {
			req.Header.Set(obs.TraceHeader, id)
		}
		resp, err := c.client.Do(req)
		if err == nil {
			c.markSuccess(member)
			// The attempt context must survive until the caller has read
			// the body: cancel it on Close instead of here.
			resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
			return resp, nil
		}
		cancel()
		c.markFailure(member)
		lastErr = err
		if ctx.Err() != nil {
			break // the overall call is dead; don't burn more attempts
		}
		if !idempotent && !dialError(err) {
			break // bytes may have reached the node: not safe to replay
		}
	}
	return nil, lastErr
}

// Call is the one JSON call: it marshals in (no body when nil), makes
// one Do, turns a non-200 reply into an errStatus, and decodes the reply
// into out (drains it when out is nil).
func (c *CommClient) Call(ctx context.Context, member, method, path string, in, out any) error {
	var body []byte
	contentType := ""
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body, contentType = b, "application/json"
	}
	resp, err := c.Do(ctx, member, method, path, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		err = errStatus(resp.StatusCode)
	} else if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return fmt.Errorf("%s %s%s: %w", method, member, path, err)
	}
	return nil
}

// errStatus is a member's non-200 reply to a Call: the member was
// reached and refused, as opposed to a transport failure.
type errStatus int

func (e errStatus) Error() string { return "status " + strconv.Itoa(int(e)) }

// BreakerOpen reports whether member's breaker is currently open
// (ignoring the half-open trial window: an open breaker stays "open"
// for routing decisions until a call actually succeeds).
func (c *CommClient) BreakerOpen(member string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[member]
	return b != nil && b.open
}

// OpenBreakers lists the members with open breakers, sorted.
func (c *CommClient) OpenBreakers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for m, b := range c.breakers {
		if b.open {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// Forget drops member's breaker state (the member left the cluster).
func (c *CommClient) Forget(member string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.breakers, member)
}

// allow admits a call: always when the breaker is closed; when open,
// only a single trial per cooldown window (half-open probing).
func (c *CommClient) allow(member string) bool {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[member]
	if b == nil || !b.open {
		return true
	}
	if now.Before(b.until) {
		return false
	}
	// Half-open: admit this caller as the trial and push the window so
	// concurrent callers keep failing fast until the trial resolves.
	b.until = now.Add(c.cfg.breakerCooldown)
	return true
}

func (c *CommClient) markSuccess(member string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.breakers[member]; b != nil {
		b.fails, b.open = 0, false
	}
}

func (c *CommClient) markFailure(member string) {
	now := c.cfg.now()
	c.mu.Lock()
	b := c.breakers[member]
	if b == nil {
		b = &breaker{}
		c.breakers[member] = b
	}
	b.fails++
	opened := false
	if b.fails >= c.cfg.breakerThreshold && !b.open {
		b.open, opened = true, true
	}
	if b.open {
		b.until = now.Add(c.cfg.breakerCooldown)
	}
	c.mu.Unlock()
	if opened && c.cfg.OnBreakerOpen != nil {
		c.cfg.OnBreakerOpen(member)
	}
}

// backoff returns the jittered exponential delay before attempt
// (attempt >= 1): uniform in [d/2, d) with d doubling from backoffBase
// and capped at backoffMax. The jitter keeps a fleet of proxies from
// hammering a recovering node in lockstep.
func (c *CommClient) backoff(attempt int) time.Duration {
	d := c.cfg.backoffBase << (attempt - 1)
	if d <= 0 || d > c.cfg.backoffMax {
		d = c.cfg.backoffMax
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// dialError reports whether err happened at the dial layer — before
// any request bytes were written — making even a non-idempotent
// request safe to retry.
func dialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// cancelOnClose releases a successful attempt's context when the
// caller finishes with the body.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}
