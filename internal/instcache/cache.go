package instcache

import (
	"container/list"
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"rbpebble/internal/obs"
	"rbpebble/internal/pebble"
)

// Value is one cached solution, stored in canonical node numbering so
// every isomorphic requester can share it (translate with
// ToCanonical/FromCanonical around the cache). The JSON form is the
// node-to-node wire format for drain handoff and replication —
// canonical numbering makes it portable across nodes by construction.
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
	// Tier is the budget tier (TierForBudget) whose deadline produced
	// this interval entry; 0 for proven-optimal values, where budget no
	// longer matters.
	Tier int `json:"tier,omitempty"`
}

// TierForBudget buckets a solve budget into a doubling tier: budgets in
// [2^(t-1), 2^t) milliseconds share tier t. Interval cache entries are
// keyed by tier so a cheap 50ms attempt and an expensive 10s attempt at
// the same instance are tracked separately — and a request is served a
// stored interval directly only when a strictly HIGHER tier already
// tried harder than this request could (lower or equal tiers instead
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
	// interval entries (across all budget tiers).
	IntervalEntries int
	// IntervalHits counts lookups served directly from a stored
	// interval because a strictly higher budget tier had already tried
	// harder than the request's own budget.
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
// wait on.
type flight struct {
	done chan struct{}
	val  Value
	err  error
}

// Cache is a bounded cache of solved instances with singleflight
// deduplication, split into two LRU segments: proven-optimal values
// (authoritative, never displaced by anything weaker) and
// deadline-limited certified intervals keyed by (instance, budget
// tier), which warm-start later refinements of the same instance. The
// zero value is not usable; call New.
type Cache struct {
	mu      sync.Mutex
	max     int
	imax    int
	ll      *list.List // optimal entries; front = most recent
	entries map[string]*list.Element
	ill     *list.List // interval entries; front = most recent
	tiers   map[string]map[int]*list.Element
	flights map[string]*flight

	hits, misses, shared, evictions           uint64
	ihits, istores, ievictions, warms, tights uint64
	imported, importRejected                  uint64
}

type entry struct {
	key  string
	tier int // 0 for optimal entries
	val  Value
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
		imax:    max,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		ill:     list.New(),
		tiers:   make(map[string]map[int]*list.Element),
		flights: make(map[string]*flight),
	}
}

// Do returns the cached value for key, or runs fn to produce it. At
// most one fn runs per key at a time: concurrent callers with the same
// key share the first caller's result (shared=true). hit=true marks a
// response served without running fn: a proven-optimal entry, or a
// stored interval from a strictly higher budget tier than the
// request's. Otherwise fn runs, seeded with the merged cached interval
// for the instance when one exists (warm != nil, warmed=true). Optimal
// results are stored in the primary segment; deadline-limited results
// are merged with the cached interval (the interval only ever
// tightens) and stored under the request's budget tier — and if the
// merged interval closes, it is promoted to the optimal segment.
//
// ctx bounds only the caller's WAIT on another request's in-flight
// solve — a short-deadline request latching onto a long-budget flight
// gives up with ctx.Err() at its own deadline instead of inheriting
// the leader's. The leader's fn itself is never interrupted by ctx.
func (c *Cache) Do(ctx context.Context, key string, tier int, fn func(warm *Value) (Value, error)) (val Value, hit, shared, warmed bool, err error) {
	c.mu.Lock()
	if v, ok := c.probeLocked(key, tier); ok {
		c.mu.Unlock()
		return v, true, false, false, nil
	}
	c.misses++
	if f, ok := c.flights[key]; ok {
		c.shared++
		c.mu.Unlock()
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
	var warm *Value
	if w, ok := c.mergedIntervalLocked(key); ok {
		warm = &w
		warmed = true
		c.warms++
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	// If fn panics the flight must still be torn down — waiters freed
	// with an error, the flights entry removed — or the key would be
	// poisoned forever (every later request blocking its full deadline
	// on a done channel nobody will close). The panic then propagates.
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("instcache: solve panicked: %v", r)
			c.mu.Lock()
			delete(c.flights, key)
			c.mu.Unlock()
			close(f.done)
			panic(r)
		}
	}()
	f.val, f.err = fn(warm)

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		// Store (merging with the cached interval) before releasing the
		// waiters, so they observe the tightened value too.
		f.val = c.storeLocked(key, tier, warm, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, false, warmed, f.err
}

// Probe is the read-only half of Do: it returns the value a lookup of
// (key, tier) would be served without running a solve — a
// proven-optimal entry, or the merged interval when a strictly higher
// budget tier already tried harder — and counts it as a cache hit.
// A miss counts nothing: the caller is expected to follow up with Do,
// which records the miss itself. The batched request plane probes a
// whole batch up front to classify items into scheduling lanes.
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

func (c *Cache) probeLocked(key string, tier int) (Value, bool) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, true
	}
	if v, ok := c.intervalAboveLocked(key, tier); ok {
		c.ihits++
		return v, true
	}
	return Value{}, false
}

// intervalAboveLocked returns the merged cached interval for key when
// some stored tier strictly exceeds reqTier — a higher budget already
// tried harder than this request can, so re-solving cannot be expected
// to tighten anything.
func (c *Cache) intervalAboveLocked(key string, reqTier int) (Value, bool) {
	best := -1
	for t := range c.tiers[key] {
		if t > best {
			best = t
		}
	}
	if best <= reqTier {
		return Value{}, false
	}
	return c.mergedIntervalLocked(key)
}

// mergedIntervalLocked folds every stored tier of key into the
// tightest certified interval (max lower, min upper with its trace),
// touching the contributing entries' LRU positions.
func (c *Cache) mergedIntervalLocked(key string) (Value, bool) {
	m := c.tiers[key]
	if len(m) == 0 {
		return Value{}, false
	}
	var out Value
	first := true
	for _, el := range m {
		e := el.Value.(*entry)
		c.ill.MoveToFront(el)
		if first {
			out = e.val
			first = false
			continue
		}
		out = tighten(out, e.val)
	}
	return out, true
}

// tighten merges two certified intervals of the same instance: the
// larger lower bound, and the smaller upper bound together with its
// witness trace and provenance.
func tighten(a, b Value) Value {
	out := a
	if b.UpperScaled < a.UpperScaled {
		out.Moves, out.UpperScaled, out.Source, out.Tier = b.Moves, b.UpperScaled, b.Source, b.Tier
	}
	if b.LowerScaled > out.LowerScaled {
		out.LowerScaled = b.LowerScaled
	}
	return out
}

// storeLocked records a solve result: optimal values go to the primary
// segment (dropping any interval entries for the instance — they are
// obsolete), deadline-limited values are merged with the cached
// interval and stored under the request's budget tier. A merged
// interval that closes is promoted to the optimal segment. Returns the
// value the caller should serve (the merged interval, never wider than
// what was already known).
func (c *Cache) storeLocked(key string, tier int, warm *Value, v Value) Value {
	if v.Optimal {
		v.Tier = 0
		c.insertOptimalLocked(key, v)
		c.dropIntervalsLocked(key)
		return v
	}
	merged := v
	if warm != nil {
		merged = tighten(*warm, v)
	}
	if v.Tier > 0 && v.Tier < tier {
		// The solve stopped well short of its requested budget
		// (cancellation, shutdown grace): credit only the tier it
		// actually consumed, or a weak interval would masquerade as a
		// high-budget attempt and be served to lower-budget requests
		// that could genuinely tighten it.
		tier = v.Tier
	}
	merged.Tier = tier
	if merged.LowerScaled >= merged.UpperScaled && merged.UpperScaled > 0 {
		// The bounds met across requests: the interval is closed even
		// though no single solve proved it alone.
		merged.Optimal = true
		merged.Tier = 0
		c.insertOptimalLocked(key, merged)
		c.dropIntervalsLocked(key)
		return merged
	}
	if warm != nil && (merged.LowerScaled > warm.LowerScaled || merged.UpperScaled < warm.UpperScaled) {
		c.tights++
	}
	c.istores++
	m := c.tiers[key]
	if m == nil {
		m = make(map[int]*list.Element)
		c.tiers[key] = m
	}
	if el, ok := m[tier]; ok {
		el.Value.(*entry).val = merged
		c.ill.MoveToFront(el)
		return merged
	}
	m[tier] = c.ill.PushFront(&entry{key: key, tier: tier, val: merged})
	for c.ill.Len() > c.imax {
		back := c.ill.Back()
		c.removeIntervalLocked(back)
		c.ievictions++
	}
	return merged
}

func (c *Cache) removeIntervalLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ill.Remove(el)
	if m := c.tiers[e.key]; m != nil {
		delete(m, e.tier)
		if len(m) == 0 {
			delete(c.tiers, e.key)
		}
	}
}

func (c *Cache) dropIntervalsLocked(key string) {
	for _, el := range c.tiers[key] {
		c.ill.Remove(el)
	}
	delete(c.tiers, key)
}

func (c *Cache) insertOptimalLocked(key string, v Value) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, val: v})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*entry).key)
		c.evictions++
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

// Entry is one cache line on the wire: the canonical instance key, the
// budget tier (0 for proven-optimal), and the value in canonical node
// numbering. It is the unit of drain handoff and replication between
// cluster nodes — because both the key and the trace are canonical,
// an entry produced on one node is directly usable on any other.
type Entry struct {
	Key   string `json:"key"`
	Tier  int    `json:"tier,omitempty"`
	Value Value  `json:"value"`
}

// Export snapshots every cached entry — the proven-optimal segment and
// every budget tier of the interval segment — without disturbing LRU
// order. A draining node exports its cache and pushes it to its ring
// successors so failover warm-starts instead of re-searching.
func (c *Cache) Export() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.ll.Len()+c.ill.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		out = append(out, Entry{Key: e.key, Value: e.val})
	}
	// Oldest first in both segments, so an importer that evicts under
	// pressure keeps the most recently used entries.
	for el := c.ill.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		out = append(out, Entry{Key: e.key, Tier: e.tier, Value: e.val})
	}
	return out
}

// Import merges entries from another node into this cache and returns
// how many carried new information. Proven-optimal entries are
// authoritative: they land in the optimal segment (dropping the key's
// now-obsolete intervals) unless the key is already proven. Interval
// entries merge through the same tighten-and-store path as local
// solves — the cached interval only ever tightens, and a merge whose
// bounds meet promotes to the optimal segment. Entries for instances
// this node has already proven optimal are skipped outright.
//
// Peer input is not trusted blindly: an entry whose bounds cannot be a
// certificate — a negative lower bound, a lower bound above the upper
// bound, or an "optimal" value whose bounds differ — is rejected and
// counted in Stats.ImportRejected. (The upper bound's witness trace is
// not replayed here.)
func (c *Cache) Import(entries []Entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, e := range entries {
		if v := e.Value; v.LowerScaled < 0 || v.LowerScaled > v.UpperScaled ||
			(v.Optimal && v.LowerScaled != v.UpperScaled) {
			c.importRejected++
			continue
		}
		if _, proven := c.entries[e.Key]; proven {
			continue
		}
		v := e.Value
		if v.Optimal {
			v.Tier = 0
			c.insertOptimalLocked(e.Key, v)
			c.dropIntervalsLocked(e.Key)
			added++
			c.imported++
			continue
		}
		tier := e.Tier
		if tier <= 0 {
			tier = v.Tier
		}
		if tier <= 0 {
			continue // malformed: an interval entry needs a budget tier
		}
		var warm *Value
		if w, ok := c.mergedIntervalLocked(e.Key); ok {
			if w.LowerScaled >= v.LowerScaled && w.UpperScaled <= v.UpperScaled {
				if _, have := c.tiers[e.Key][tier]; have {
					continue // nothing new: already at least this tight at this tier
				}
			}
			warm = &w
		}
		v.Tier = tier
		c.storeLocked(e.Key, tier, warm, v)
		added++
		c.imported++
	}
	return added
}
