package cluster

import (
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Prober keeps the ring's member health current by polling each
// member's /healthz. A member is up iff the probe returns 2xx — an
// rbserve node that is draining for shutdown answers 503 with the
// X-Rbserve-Draining header, so the ring stops routing to it before it
// goes away AND the proxy can tell a *draining* node (alive, handing
// off) from a *dead* one (transport failure / TTL expiry).
//
// Consecutive transport failures back the probe off exponentially with
// jitter instead of hammering a down node on the fixed interval: a
// member that refused k probes in a row is next probed after roughly
// interval << (k-1), capped at maxProbeBackoff x interval. A member
// that ANSWERS — any HTTP status, including a draining 503 — stays on
// the regular cadence, because an answering node's state can change
// (drain completes, drain aborts) and we want to notice quickly.
type Prober struct {
	ring     *Ring
	client   *http.Client
	interval time.Duration
	// onStatus, when set, receives every probe verdict (healthy = 2xx,
	// draining = 503 + drain header). The proxy feeds it into the
	// membership registry.
	onStatus func(member string, healthy, draining bool)

	mu    sync.Mutex
	fails map[string]int       // consecutive transport failures
	due   map[string]time.Time // next probe time for backed-off members

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// maxProbeBackoff caps the failure backoff at this many intervals.
const maxProbeBackoff = 16

// NewProber returns a started prober (poll loop runs until Stop) that
// probes with a 1s-timeout client. interval <= 0 selects 2s. onStatus
// may be nil.
func NewProber(ring *Ring, interval time.Duration, onStatus func(member string, healthy, draining bool)) *Prober {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	p := &Prober{ring: ring, client: &http.Client{Timeout: time.Second}, interval: interval, onStatus: onStatus, stop: make(chan struct{})}
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *Prober) loop() {
	defer p.wg.Done()
	// Probe immediately at start so a dead seed member is demoted
	// before the first interval elapses.
	p.ProbeOnce()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.ProbeOnce()
		}
	}
}

// ProbeOnce probes every DUE member once, in parallel, and updates the
// ring. Members inside their failure backoff window are skipped.
// Exported so tests (and the proxy's failover path) can force a
// re-check without waiting out the interval.
func (p *Prober) ProbeOnce() {
	now := time.Now()
	var wg sync.WaitGroup
	for m := range p.ring.Members() {
		if !p.dueNow(m, now) {
			continue
		}
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			healthy, draining, answered := p.probe(m)
			p.record(m, answered)
			p.ring.SetHealthy(m, healthy)
			if p.onStatus != nil {
				p.onStatus(m, healthy, draining)
			}
		}(m)
	}
	wg.Wait()
}

// dueNow reports whether m should be probed now (lazy state init: the
// prober may be constructed directly by tests).
func (p *Prober) dueNow(m string, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.due == nil {
		return true
	}
	t, ok := p.due[m]
	return !ok || !now.Before(t)
}

// record updates m's consecutive-failure count and next-due time:
// answered probes reset to the regular cadence, transport failures
// back off exponentially with +-25% jitter.
func (p *Prober) record(m string, answered bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fails == nil {
		p.fails = make(map[string]int)
		p.due = make(map[string]time.Time)
	}
	if answered {
		p.fails[m] = 0
		delete(p.due, m)
		return
	}
	p.fails[m]++
	p.due[m] = time.Now().Add(probeBackoff(p.fails[m], p.interval))
}

// probeBackoff returns the jittered delay before re-probing a member
// with k consecutive transport failures: interval << (k-1) capped at
// maxProbeBackoff intervals, jittered uniformly in [0.75d, 1.25d).
func probeBackoff(k int, interval time.Duration) time.Duration {
	if k < 1 {
		k = 1
	}
	d := interval
	for i := 1; i < k && d < time.Duration(maxProbeBackoff)*interval; i++ {
		d *= 2
	}
	if max := time.Duration(maxProbeBackoff) * interval; d > max {
		d = max
	}
	if d <= 0 {
		return 0
	}
	return d*3/4 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// probe returns (healthy, draining, answered): healthy iff 2xx,
// draining iff the node stamped the drain header, answered iff the
// node produced ANY HTTP response (transport failures are what drive
// the probe backoff — an answering node is alive, whatever it said).
func (p *Prober) probe(member string) (healthy, draining, answered bool) {
	resp, err := p.client.Get("http://" + member + "/healthz")
	if err != nil {
		return false, false, false
	}
	resp.Body.Close()
	healthy = resp.StatusCode >= 200 && resp.StatusCode < 300
	draining = resp.Header.Get("X-Rbserve-Draining") == "1"
	return healthy, draining, true
}

// Stop ends the poll loop.
func (p *Prober) Stop() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}
