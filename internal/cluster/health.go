package cluster

import (
	"context"
	"io"
	"sync"
	"time"
)

// Prober keeps the member table current by polling each member's
// /healthz. A member is up iff the probe returns 2xx — an rbserve node
// that is draining for shutdown answers 503 with the
// X-Rbserve-Draining header, so routing stops before it goes away AND
// the proxy can tell a *draining* node (alive, handing off) from a
// *dead* one (transport failure / TTL expiry).
//
// Probes go through the proxy's CommClient, so its per-member breaker
// is the one failure backoff: consecutive transport failures open it,
// an open breaker fails the probe fast with no network call (the
// member stays down), and the half-open trial after the cooldown is
// the re-probe. A member that ANSWERS — any HTTP status, including a
// draining 503 — keeps its breaker closed and stays on the regular
// cadence, because an answering node's state can change (drain
// completes, drain aborts) and we want to notice quickly.
type Prober struct {
	ms       *Membership
	comm     *CommClient
	interval time.Duration

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// probeTimeout bounds one probe, retries included.
const probeTimeout = time.Second

// NewProber returns a started prober (poll loop runs until Stop) that
// probes ms's members through comm every interval (> 0).
func NewProber(ms *Membership, comm *CommClient, interval time.Duration) *Prober {
	p := &Prober{ms: ms, comm: comm, interval: interval, stop: make(chan struct{})}
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

// ProbeOnce probes every member once, in parallel, and writes each
// verdict into the member table. Exported so tests can force a
// re-check without waiting out the interval.
func (p *Prober) ProbeOnce() {
	var wg sync.WaitGroup
	for _, v := range p.ms.View() {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			up, draining := p.probe(m)
			p.ms.SetStatus(m, up, draining)
		}(v.Member)
	}
	wg.Wait()
}

// probe returns (up, draining): up iff 2xx, draining iff the node
// stamped the drain header. A transport failure or an open breaker is
// down and not draining.
func (p *Prober) probe(member string) (up, draining bool) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	resp, err := p.comm.Get(ctx, member, "/healthz")
	if err != nil {
		return false, false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	up = resp.StatusCode >= 200 && resp.StatusCode < 300
	draining = resp.Header.Get("X-Rbserve-Draining") == "1"
	return up, draining
}

// Stop ends the poll loop.
func (p *Prober) Stop() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}
