package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
)

// The proxy's routing policy. Every path that picks a member for a key,
// asks the fleet for an ID, or merges the fleet's answers goes through
// the helpers below; handleSolve alone walks every member (down members
// last) because a single solve has nowhere else to go.

// owner is the one eligibility rule: the first rendezvous owner of key
// among the routable members (up, not draining) that is not behind an
// open breaker and not in skip. It returns "" when no member is
// eligible.
func (p *Proxy) owner(key string, skip map[string]bool) string {
	for _, m := range Owners(key, p.membership.Routable()) {
		if !skip[m] && !p.comm.BreakerOpen(m) {
			return m
		}
	}
	return ""
}

// scatter is the keyed fan-out (batch items, handoff and replicated
// entries). It groups the indices of keys by owner, never choosing skip,
// and calls send once per owner, concurrently. A group whose send
// returns true is re-routed with its target skipped; keys with no
// eligible owner wait for the next round. After at most three rounds it
// returns the indices still unsent and the number of rounds it ran.
func (p *Proxy) scatter(keys []string, skip string, send func(target string, idxs []int) (reroute bool)) (unsent []int, rounds int) {
	skipped := map[string]bool{skip: true}
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for ; rounds < 3 && len(pending) > 0; rounds++ {
		groups := map[string][]int{}
		var next []int
		for _, i := range pending {
			if target := p.owner(keys[i], skipped); target != "" {
				groups[target] = append(groups[target], i)
			} else {
				next = append(next, i)
			}
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for target, idxs := range groups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if send(target, idxs) {
					mu.Lock()
					skipped[target] = true
					next = append(next, idxs...)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		pending = next
	}
	return pending, rounds
}

// firstAnswer is the ordered lookup (job polls, traces, job search):
// it asks the routable members in order and returns the first response
// accept takes, with the member that gave it. An unreachable member is
// demoted; a response accept declines is drained. The response is nil
// when no member gave an acceptable answer.
func (p *Proxy) firstAnswer(ctx context.Context, method, path string, accept func(*http.Response) bool) (*http.Response, string) {
	for _, m := range p.membership.Routable() {
		resp, err := p.comm.Do(ctx, m, method, path, "", nil)
		if err != nil {
			p.membership.Demote(m)
			continue
		}
		if accept(resp) {
			return resp, m
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil, ""
}

// known accepts any answer but a 404: the member knows the ID.
func known(resp *http.Response) bool { return resp.StatusCode != http.StatusNotFound }

// gather is the concurrent merge source (metrics, solve telemetry): it
// calls fetch on every routable member at once and returns the answers
// of the members that gave one.
func gather[T any](p *Proxy, ctx context.Context, fetch func(ctx context.Context, member string) (T, error)) map[string]T {
	out := map[string]T{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range p.membership.Routable() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := fetch(ctx, m); err == nil {
				mu.Lock()
				out[m] = v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// memberGone reports whether a reply means its member is going away or
// fronting something broken — a 502, or a 503 from a draining node — so
// the caller demotes it and fails over. Any other reply is the member's
// answer and is relayed: a healthy node under load emits 503s without
// the drain header (queue full, singleflight wait timeout), and
// demoting it would cascade the keyspace onto cache-cold members.
func memberGone(resp *http.Response) bool {
	return resp.StatusCode == http.StatusBadGateway ||
		resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("X-Rbserve-Draining") == "1"
}
