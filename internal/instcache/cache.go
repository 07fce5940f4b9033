package instcache

import (
	"container/list"
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
)

// Value is one cached solution, stored in canonical node numbering so
// every isomorphic requester can share it (solve the instance relabeled
// by its key's permutation; FromCanonical translates on the way out).
// The JSON form is the node-to-node wire format for drain handoff and
// replication — canonical numbering makes it portable across nodes.
type Value struct {
	// Moves is the incumbent trace in canonical node IDs.
	Moves []pebble.Move `json:"moves,omitempty"`
	// UpperScaled and LowerScaled are the certified interval ends.
	UpperScaled int64 `json:"upper_scaled"`
	LowerScaled int64 `json:"lower_scaled"`
	// Optimal marks a closed interval (proven optimum). Optimal values
	// live in the primary cache segment and are never evicted by
	// interval entries.
	Optimal bool `json:"optimal,omitempty"`
	// Source names the strategy that produced the incumbent.
	Source string `json:"source,omitempty"`
	// Tier is the highest budget tier (TierForBudget) any solve merged
	// into this interval has tried, crediting a solve canceled short of
	// its budget only the tier it consumed; 0 for proven-optimal values,
	// where budget no longer matters. It is the only place an entry's
	// tier lives, in the cache and on the wire.
	Tier int `json:"tier,omitempty"`
}

// TierForBudget buckets a solve budget into a doubling tier: budgets in
// [2^(t-1), 2^t) milliseconds share tier t. A cached interval carries
// the highest tier tried on its instance, so a cheap 50ms attempt does
// not pass for an expensive 10s one — and a request is served a stored
// interval directly only when a strictly HIGHER tier already tried
// harder than this request could (lower or equal tiers instead
// warm-start a fresh refinement, which is what makes repeated hard
// instances converge).
func TierForBudget(d time.Duration) int {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return bits.Len64(uint64(ms))
}

// Stats are the cache's monotone counters, exposed via /metrics.
type Stats struct {
	// Hits and Misses count lookups against stored proven-optimal
	// entries.
	Hits, Misses uint64
	// SharedFlights counts lookups that latched onto another request's
	// in-flight solve instead of starting their own.
	SharedFlights uint64
	// Evictions counts LRU evictions of proven-optimal entries.
	Evictions uint64
	// Entries is the current number of stored proven-optimal entries.
	Entries int
	// IntervalEntries is the current number of stored deadline-limited
	// interval entries: one per instance key.
	IntervalEntries int
	// IntervalHits counts lookups served directly from a stored
	// interval because its strictly higher budget tier had already
	// tried harder than the request's own budget.
	IntervalHits uint64
	// IntervalStores counts interval entries written (new or replaced).
	IntervalStores uint64
	// IntervalEvictions counts LRU evictions of interval entries
	// (interval entries only ever displace each other, never
	// proven-optimal ones).
	IntervalEvictions uint64
	// WarmStarts counts solves that were seeded from a cached interval.
	WarmStarts uint64
	// Tightenings counts stored intervals that strictly tightened the
	// previously cached interval for their instance (the cross-request
	// convergence signal).
	Tightenings uint64
	// Imported counts entries merged in from other cluster nodes
	// (drain handoff or proven-optimal replication) that carried new
	// information.
	Imported uint64
	// ImportRejected counts imported entries dropped as structurally
	// impossible certificates (see Import).
	ImportRejected uint64
}

// flight is one in-progress solve that concurrent identical requests
// wait on. It owns the solve's lifetime: live counts the callers still
// waiting on it, the leader included, and the last one to stop
// cancels the context the solve runs under.
type flight struct {
	done   chan struct{}
	val    Value
	err    error
	live   atomic.Int32
	cancel context.CancelFunc
}

// join counts one more caller on f, unless the count already reached
// zero: that solve is canceled, and a caller arriving now runs its own
// instead of being served the canceled one's partial interval.
func (f *flight) join(ctx context.Context) (release func(), ok bool) {
	for n := f.live.Load(); n > 0; n = f.live.Load() {
		if f.live.CompareAndSwap(n, n+1) {
			return f.hold(ctx), true
		}
	}
	return nil, false
}

// hold makes one counted caller stop counting when ctx ends or the
// returned release runs, whichever comes first.
func (f *flight) hold(ctx context.Context) (release func()) {
	leave := func() {
		if f.live.Add(-1) == 0 {
			f.cancel()
		}
	}
	stop := context.AfterFunc(ctx, leave)
	return func() {
		if stop() {
			leave()
		}
	}
}

// Cache is a bounded cache of solved instances with singleflight
// deduplication. Each key has at most one entry, kept in one of two
// LRU segments: proven-optimal values (authoritative, never displaced
// by anything weaker) and deadline-limited certified intervals, which
// warm-start later refinements of the same instance. A key's interval
// is the merge of every result stored for it, tagged with the highest
// budget tier tried. The zero value is not usable; call New.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // in ll if its value is optimal, else in ill
	ll      *list.List               // optimal entries; front = most recent
	ill     *list.List               // interval entries; front = most recent
	flights map[string]*flight

	hits, misses, shared, evictions           uint64
	ihits, istores, ievictions, warms, tights uint64
	imported, importRejected                  uint64
}

type entry struct {
	key string
	val Value
}

// New returns a cache bounded to max proven-optimal entries and max
// interval entries (max <= 0 means 256 each). The two segments are
// bounded independently, so interval entries can never evict
// proven-optimal ones.
func New(max int) *Cache {
	if max <= 0 {
		max = 256
	}
	return &Cache{
		max:     max,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		ill:     list.New(),
		flights: make(map[string]*flight),
	}
}

// Flight returns the cached value for key, or runs fn to produce it.
// At most one fn runs per key at a time: concurrent callers with the
// same key share the first caller's result (shared=true). hit=true
// marks a response served without running fn: a proven-optimal entry,
// or a stored interval whose tier is strictly higher than the
// request's. Otherwise fn runs, seeded with the key's cached interval
// when one exists (warm != nil, warmed=true). Optimal results are
// stored in the primary segment; deadline-limited results are merged
// with the interval cached when fn returns (the interval only ever
// tightens, and its tier only ever rises) — and if the merged interval
// closes, it is promoted to the optimal segment.
//
// The flight is the only owner of the shared solve's lifetime. It
// counts its live callers, the leader included; a caller stops counting
// when its ctx ends or it stops waiting, and when the count reaches
// zero the flight cancels the context fn runs under. That context
// carries the leader's values (its trace and cache span) but none of
// its deadline or cancellation, so one caller giving up never stops a
// solve another caller still waits on; a caller arriving after the
// count reached zero starts a flight of its own. ctx also bounds a
// waiter's wait: a short-deadline request latching onto a long-budget
// flight gives up with ctx.Err() at its own deadline instead of
// inheriting the leader's.
func (c *Cache) Flight(ctx context.Context, key string, tier int, fn func(ctx context.Context, warm *Value) (Value, error)) (val Value, hit, shared, warmed bool, err error) {
	c.mu.Lock()
	if v, ok := c.probeLocked(key, tier); ok {
		c.mu.Unlock()
		return v, true, false, false, nil
	}
	c.misses++
	if f, ok := c.flights[key]; ok {
		if release, ok := f.join(ctx); ok {
			c.shared++
			c.mu.Unlock()
			defer release()
			// The wait on another request's in-flight solve is its own span:
			// "where did this request's time go" for a latched waiter is
			// almost entirely here.
			_, wsp := obs.StartSpan(ctx, "cache-wait")
			select {
			case <-f.done:
				wsp.End()
				return f.val, false, true, false, f.err
			case <-ctx.Done():
				wsp.SetAttr("err", ctx.Err().Error())
				wsp.End()
				return Value{}, false, true, false, ctx.Err()
			}
		}
	}
	var warm *Value
	if w, ok := c.intervalLocked(key); ok {
		warm = &w
		warmed = true
		c.warms++
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	f := &flight{done: make(chan struct{}), cancel: cancel}
	f.live.Store(1) // the leader
	c.flights[key] = f
	release := f.hold(ctx)
	c.mu.Unlock()
	defer release()

	// finish tears the flight down: a later caller must not find it, but
	// a flight started after this one's count reached zero stays.
	finish := func() {
		if c.flights[key] == f {
			delete(c.flights, key)
		}
	}
	// If fn panics the flight must still be torn down — waiters freed
	// with an error, the flights entry removed — or the key would be
	// poisoned forever (every later request blocking its full deadline
	// on a done channel nobody will close). The panic then propagates.
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("instcache: solve panicked: %v", r)
			c.mu.Lock()
			finish()
			c.mu.Unlock()
			close(f.done)
			panic(r)
		}
	}()
	f.val, f.err = fn(fctx, warm)

	c.mu.Lock()
	finish()
	if f.err == nil {
		// Store before releasing the waiters, so they observe the merged
		// value too.
		f.val = c.storeLocked(key, tier, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, false, warmed, f.err
}

// Do is Flight for a fn that no caller's ctx ever interrupts.
func (c *Cache) Do(ctx context.Context, key string, tier int, fn func(warm *Value) (Value, error)) (val Value, hit, shared, warmed bool, err error) {
	return c.Flight(ctx, key, tier, func(_ context.Context, warm *Value) (Value, error) { return fn(warm) })
}

// Probe is the read-only half of Flight: it returns the value a
// lookup of (key, tier) would be served without running a solve — a
// proven-optimal entry, or the key's interval when a strictly higher
// budget tier already tried harder — and counts it as a cache hit. A
// miss counts nothing: the caller is expected to follow up with
// Flight, which records the miss itself. The batched request plane
// probes a whole batch up front to classify items into scheduling
// lanes.
func (c *Cache) Probe(key string, tier int) (Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probeLocked(key, tier)
}

// ProbeBatch probes many (key, tier) pairs under one lock acquisition
// — the amortized form of Probe for batch requests. The result slice
// is parallel to keys: nil marks a miss. keys and tiers must have
// equal length.
func (c *Cache) ProbeBatch(keys []string, tiers []int) []*Value {
	out := make([]*Value, len(keys))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, key := range keys {
		if v, ok := c.probeLocked(key, tiers[i]); ok {
			v := v
			out[i] = &v
		}
	}
	return out
}

// probeLocked serves a proven-optimal entry, or an interval whose tier
// strictly exceeds reqTier — a higher budget already tried harder than
// this request can, so re-solving cannot be expected to tighten
// anything.
func (c *Cache) probeLocked(key string, reqTier int) (Value, bool) {
	el, ok := c.entries[key]
	if !ok {
		return Value{}, false
	}
	v := el.Value.(*entry).val
	switch {
	case v.Optimal:
		c.ll.MoveToFront(el)
		c.hits++
	case v.Tier > reqTier:
		c.ill.MoveToFront(el)
		c.ihits++
	default:
		return Value{}, false
	}
	return v, true
}

// intervalLocked returns key's cached interval, moving its entry to
// the front of the interval segment; ok is false when key has none
// (unknown or proven).
func (c *Cache) intervalLocked(key string) (Value, bool) {
	el, ok := c.entries[key]
	if !ok || el.Value.(*entry).val.Optimal {
		return Value{}, false
	}
	c.ill.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// tighten merges two certified intervals of the same instance: the
// larger lower bound, and the smaller upper bound together with its
// witness trace and provenance.
func tighten(a, b Value) Value {
	out := a
	if b.UpperScaled < a.UpperScaled {
		out.Moves, out.UpperScaled, out.Source = b.Moves, b.UpperScaled, b.Source
	}
	if b.LowerScaled > out.LowerScaled {
		out.LowerScaled = b.LowerScaled
	}
	return out
}

// storeLocked records a solve result against what the cache holds for
// key now — an import may have landed while the solve ran. A key
// already proven keeps its entry, and that entry is what the caller
// serves. Otherwise optimal values replace the key's interval, and
// deadline-limited values are merged with it, tagged with the higher
// of its tier and the tier this solve earned. A merged interval that
// closes is promoted to the optimal segment. Returns the value the
// caller should serve (never wider than what was already known).
func (c *Cache) storeLocked(key string, tier int, v Value) Value {
	el, ok := c.entries[key]
	var cached Value
	if ok {
		cached = el.Value.(*entry).val
	}
	if cached.Optimal {
		c.ll.MoveToFront(el)
		return cached
	}
	if v.Optimal {
		v.Tier = 0
		c.putLocked(key, v)
		return v
	}
	if v.Tier > 0 && v.Tier < tier {
		// The solve stopped well short of its requested budget
		// (cancellation, shutdown grace): credit only the tier it
		// actually consumed, or a weak interval would masquerade as a
		// high-budget attempt and be served to lower-budget requests
		// that could genuinely tighten it.
		tier = v.Tier
	}
	merged := v
	if ok {
		merged = tighten(cached, v)
		tier = max(tier, cached.Tier)
	}
	merged.Tier = tier
	if merged.LowerScaled >= merged.UpperScaled && merged.UpperScaled > 0 {
		// The bounds met across requests: the interval is closed even
		// though no single solve proved it alone.
		merged.Optimal = true
		merged.Tier = 0
		c.putLocked(key, merged)
		return merged
	}
	if ok && (merged.LowerScaled > cached.LowerScaled || merged.UpperScaled < cached.UpperScaled) {
		c.tights++
	}
	c.istores++
	c.putLocked(key, merged)
	return merged
}

// putLocked makes v key's one entry, at the front of the segment its
// Optimal flag picks — an interval whose bounds met moves from the
// interval segment to the optimal one — and evicts each segment's
// least recent entries beyond max.
func (c *Cache) putLocked(key string, v Value) {
	seg := c.ill
	if v.Optimal {
		seg = c.ll
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		if e.val.Optimal == v.Optimal {
			e.val = v
			seg.MoveToFront(el)
			return
		}
		c.ill.Remove(el)
	}
	c.entries[key] = seg.PushFront(&entry{key: key, val: v})
	for c.ll.Len() > c.max {
		delete(c.entries, c.ll.Remove(c.ll.Back()).(*entry).key)
		c.evictions++
	}
	for c.ill.Len() > c.max {
		delete(c.entries, c.ill.Remove(c.ill.Back()).(*entry).key)
		c.ievictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:              c.hits,
		Misses:            c.misses,
		SharedFlights:     c.shared,
		Evictions:         c.evictions,
		Entries:           c.ll.Len(),
		IntervalEntries:   c.ill.Len(),
		IntervalHits:      c.ihits,
		IntervalStores:    c.istores,
		IntervalEvictions: c.ievictions,
		WarmStarts:        c.warms,
		Tightenings:       c.tights,
		Imported:          c.imported,
		ImportRejected:    c.importRejected,
	}
}

// Entry is one cache line on the wire: the canonical instance key and
// its value in canonical node numbering (an interval's budget tier is
// Value.Tier). It is the unit of drain handoff and replication between
// cluster nodes — because both the key and the trace are canonical,
// an entry produced on one node is directly usable on any other.
// Older peers also sent a "tier" field, always equal to Value.Tier;
// the decoder ignores it.
type Entry struct {
	Key   string `json:"key"`
	Value Value  `json:"value"`
}

// Export snapshots every cached entry, one per key — the
// proven-optimal segment, then the interval segment — without
// disturbing LRU order. A draining node exports its cache and pushes
// it to each key's next owner so failover warm-starts instead of
// re-searching.
func (c *Cache) Export() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.entries))
	// Oldest first in both segments, so an importer that evicts under
	// pressure keeps the most recently used entries.
	for _, seg := range []*list.List{c.ll, c.ill} {
		for el := seg.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			out = append(out, Entry{Key: e.key, Value: e.val})
		}
	}
	return out
}

// Import merges entries from another node into this cache and returns
// how many carried new information. Proven-optimal entries are
// authoritative: they replace the key's now-obsolete interval unless
// the key is already proven. Interval entries merge through the same
// tighten-and-store path as local solves at their Value.Tier — the
// cached interval only ever tightens and its tier only ever rises, and
// a merge whose bounds meet promotes to the optimal segment. Entries
// for instances this node has already proven optimal, and intervals
// that neither tighten the cached one nor raise its tier, are skipped.
//
// Peer input is not trusted blindly: an entry whose bounds cannot be a
// certificate — a negative lower bound, a lower bound above the upper
// bound, an "optimal" value whose bounds differ, or an interval
// disjoint from the one already cached for the key — is rejected and
// counted in Stats.ImportRejected. (The upper bound's witness trace is
// not replayed here.)
func (c *Cache) Import(entries []Entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, e := range entries {
		v := e.Value
		if v.LowerScaled < 0 || v.LowerScaled > v.UpperScaled ||
			(v.Optimal && v.LowerScaled != v.UpperScaled) {
			c.importRejected++
			continue
		}
		if el, ok := c.entries[e.Key]; ok && el.Value.(*entry).val.Optimal {
			continue
		}
		if !v.Optimal {
			if v.Tier <= 0 {
				continue // malformed: an interval entry needs a budget tier
			}
			if w, ok := c.intervalLocked(e.Key); ok {
				if v.UpperScaled < w.LowerScaled || v.LowerScaled > w.UpperScaled {
					// Disjoint from what this node already certified: one of
					// the two certificates is wrong, and merging them would
					// invert the interval and promote it to a bogus optimum.
					c.importRejected++
					continue
				}
				if w.LowerScaled >= v.LowerScaled && w.UpperScaled <= v.UpperScaled && w.Tier >= v.Tier {
					continue // nothing new: already at least this tight and this high
				}
			}
		}
		c.storeLocked(e.Key, v.Tier, v)
		added++
		c.imported++
	}
	return added
}
