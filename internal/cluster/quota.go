package cluster

import (
	"math"
	"sync"
	"time"
)

// TenantQuota is a per-tenant token-bucket rate limiter for the
// routing proxy: each tenant (identified by the X-Rbpebble-Tenant
// header; absent maps to the "default" bucket) gets an independent
// bucket of `burst` tokens refilled at `rate` tokens/second. One
// token buys one solve item — a batch of 40 items draws 40 tokens at
// admission, before any of them is routed, so one tenant's bulk
// traffic cannot starve the fleet for everyone else.
//
// The header is unauthenticated client input, so buckets that have
// refilled to burst are dropped: a full bucket admits exactly like a
// missing one, and distinct tenant names must not pile up forever.
type TenantQuota struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	sweepAt int // sweep full buckets when the map reaches this size
}

// minQuotaSweep is the smallest bucket count that triggers a sweep.
const minQuotaSweep = 1024

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewTenantQuota returns a limiter; rate <= 0 disables it (Take always
// admits). burst <= 0 defaults to max(rate, 1) — one second's worth.
func NewTenantQuota(rate float64, burst int) *TenantQuota {
	b := float64(burst)
	if b <= 0 {
		b = math.Max(rate, 1)
	}
	return &TenantQuota{rate: rate, burst: b, buckets: make(map[string]*tokenBucket), sweepAt: minQuotaSweep}
}

// Enabled reports whether the limiter actually limits.
func (q *TenantQuota) Enabled() bool { return q != nil && q.rate > 0 }

// Take attempts to draw n tokens for tenant. It either admits (taking
// all n) or rejects whole — a batch is admitted or shed as a unit,
// never half-routed — and on rejection reports how long until n
// tokens will have accrued (the Retry-After hint). A request wider
// than the burst can never succeed whole; it is rejected with the
// time n tokens would take to mint from empty.
func (q *TenantQuota) Take(tenant string, n int) (bool, time.Duration) {
	if !q.Enabled() || n <= 0 {
		return true, 0
	}
	if tenant == "" {
		tenant = "default"
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.buckets[tenant]
	if b == nil {
		if len(q.buckets) >= q.sweepAt {
			q.sweep(now)
		}
		b = &tokenBucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	b.tokens = math.Min(q.burst, b.tokens+now.Sub(b.last).Seconds()*q.rate)
	b.last = now
	if b.tokens >= float64(n) {
		b.tokens -= float64(n)
		return true, 0
	}
	deficit := float64(n) - b.tokens
	if float64(n) > q.burst {
		deficit = float64(n)
	}
	return false, time.Duration(deficit / q.rate * float64(time.Second))
}

// sweep drops the buckets that have refilled to burst, then doubles the
// threshold from what is left, so the sweeps cost amortized O(1) per
// new tenant.
func (q *TenantQuota) sweep(now time.Time) {
	for t, b := range q.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*q.rate >= q.burst {
			delete(q.buckets, t)
		}
	}
	q.sweepAt = max(2*len(q.buckets), minQuotaSweep)
}
