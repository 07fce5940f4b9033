package cluster

import (
	"fmt"
	"testing"
	"time"

	"rbpebble/internal/obs"
)

// TestDefaults pins the configuration a proxy runs with when given
// ProxyConfig{} — the one rbproxy starts from — by reading what a
// running proxy actually uses.
func TestDefaults(t *testing.T) {
	p := NewProxy(ProxyConfig{})
	defer p.Close()

	cc := p.comm.cfg
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"probe interval", p.prober.interval, 2 * time.Second},
		{"member TTL", p.membership.TTL(), 15 * time.Second},
		{"MaxBodyBytes", p.cfg.MaxBodyBytes, int64(64 << 20)},
		{"MaxNodes", p.cfg.MaxNodes, 100000},
		{"attempt timeout", cc.AttemptTimeout, 60 * time.Second},
		{"attempts", cc.maxAttempts, 3},
		{"backoff base", cc.backoffBase, 50 * time.Millisecond},
		{"backoff cap", cc.backoffMax, 2 * time.Second},
		{"breaker threshold", cc.breakerThreshold, 4},
		{"breaker cooldown", cc.breakerCooldown, 5 * time.Second},
	} {
		if f.got != f.want {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	if d := DefaultProxyConfig(); d.ProbeInterval != p.prober.interval || d.MemberTTL != p.membership.TTL() ||
		d.MaxBodyBytes != p.cfg.MaxBodyBytes || d.MaxNodes != p.cfg.MaxNodes ||
		d.Comm.AttemptTimeout != cc.AttemptTimeout {
		t.Errorf("DefaultProxyConfig() = %+v, differs from what NewProxy(ProxyConfig{}) runs", d)
	}

	// The first retry waits 25-50ms; later ones are capped at 1-2s.
	if d := p.comm.backoff(1); d < 25*time.Millisecond || d > 50*time.Millisecond {
		t.Errorf("first backoff %s, want within [25ms, 50ms]", d)
	}
	if d := p.comm.backoff(20); d < time.Second || d > 2*time.Second {
		t.Errorf("capped backoff %s, want within [1s, 2s]", d)
	}

	// The routing-trace ring keeps the 256 newest traces.
	for i := 0; i < 300; i++ {
		p.recorder.Register(&obs.Trace{ID: fmt.Sprint(i)})
	}
	if n := p.recorder.Len(); n != 256 {
		t.Errorf("trace ring holds %d traces, want 256", n)
	}
}
