// Package refine is the self-driving background refiner: a per-node
// loop that scans the instance cache for the widest certified
// intervals, re-solves the keys this node owns at the next budget tier
// (warm-started through the same cache path foreground requests use),
// and replicates every tightening. The refiner is strictly
// subordinate to foreground traffic: an admission gate pauses
// scheduling while the node has live solves or queued work, and an
// in-flight refinement is cooperatively canceled the instant
// foreground work arrives — the engines hand back a certified partial
// interval, so even a preempted refinement can leave the cache
// tighter than it found it.
package refine

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/instcache"
)

// Config wires a Refiner into its host node. Export, Solve and the
// gates are injected so the package depends only on the cache's wire
// types, not on the service or cluster layers.
type Config struct {
	// Export snapshots the instance cache (instcache.Cache.Export).
	Export func() []instcache.Entry
	// Solve re-solves key at the given budget tier through the host's
	// cache path (warm start, replication, telemetry) and returns the
	// scaled gap of the stored interval afterwards. The ctx is canceled
	// on preemption; the solve must treat that as "stop and certify
	// what you have", not as failure.
	Solve func(ctx context.Context, key string, tier int) (gapScaled int64, err error)
	// Owns filters to keys whose first owner among the cluster's
	// members is this node (nil = solo node: own everything). Non-owned keys are left to their
	// owner's refiner so the fleet doesn't duplicate background work.
	Owns func(key string) bool
	// Resolvable reports whether the host can materialize the problem
	// behind key (cache keys are digests; only keys this node has seen
	// a request for can be re-solved). nil = all.
	Resolvable func(key string) bool
	// Busy is the admission gate: while it reports true (foreground
	// solves running, lane backlogs nonempty) the refiner schedules
	// nothing. nil = never busy.
	Busy func() bool
	// Interval is the idle scan cadence. It is required: New panics
	// unless it is > 0.
	Interval time.Duration
	// Logf, when set, receives refiner lifecycle logs.
	Logf func(format string, args ...any)
}

const (
	// maxTier caps the budget tier a refinement may escalate to (tier
	// 12: budgets of 2-4 s). A key whose stored interval already
	// reached it is left alone — its headroom is spent.
	maxTier = 12
	// perCycle bounds how many candidates one scan refines before
	// rescanning, so a fresh foreground burst is noticed between solves
	// even without preemption.
	perCycle = 2
)

func (c Config) withDefaults() Config {
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Candidate is one refinement target chosen from a cache scan: a key
// whose certified interval is still open and has budget-tier headroom
// left.
type Candidate struct {
	Key string `json:"key"`
	// Tier is the budget tier the refinement will run at: one above the
	// highest tier the key's cached interval has tried, so the cache
	// treats the attempt as a genuine escalation (warm start, not a
	// served hit).
	Tier int `json:"tier"`
	// GapScaled is the scaled width of the key's cached interval.
	GapScaled int64 `json:"gap_scaled"`
	// Priority orders candidates: scaled gap weighted by remaining tier
	// headroom, so wide intervals that still have cheap escalations
	// left are refined before nearly-exhausted ones.
	Priority float64 `json:"priority"`
}

// Candidates scans a cache export (one entry per key) for refinement
// targets, widest and most headroom first. Proven-optimal keys, closed
// intervals and keys at the tier ceiling are skipped.
func Candidates(entries []instcache.Entry, maxTier int) []Candidate {
	var out []Candidate
	for _, e := range entries {
		v := e.Value
		if v.Optimal {
			continue
		}
		gap := v.UpperScaled - v.LowerScaled
		if gap <= 0 {
			continue // interval closed; the next request promotes it
		}
		headroom := maxTier - v.Tier
		if headroom <= 0 {
			continue // budget-tier ceiling reached
		}
		out = append(out, Candidate{
			Key:       e.Key,
			Tier:      v.Tier + 1,
			GapScaled: gap,
			Priority:  float64(gap) * float64(headroom),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Status is the /debug/refiner view of a Refiner.
type Status struct {
	Enabled    bool        `json:"enabled"`
	IntervalMS int64       `json:"interval_ms"`
	MaxTier    int         `json:"max_tier"`
	Busy       bool        `json:"busy"`
	CurrentKey string      `json:"current_key,omitempty"`
	LastScan   time.Time   `json:"last_scan,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
	Runs       uint64      `json:"runs"`
	Tightened  uint64      `json:"tightened"`
	Preempted  uint64      `json:"preempted"`
	Skipped    uint64      `json:"skipped"`
	GapSum     uint64      `json:"gap_sum"`
}

// Refiner runs the background refinement loop. Create with New, stop
// with Stop (idempotent; waits for the in-flight refinement to land
// its partial interval, so a drain that stops the refiner before the
// handoff exports everything the refiner tightened).
type Refiner struct {
	cfg  Config
	base context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
	once sync.Once

	runs, tightened, preempted, skipped atomic.Uint64
	// gapSum accumulates the scaled gap reduction the refiner achieved
	// (the rbserve_refiner_gap_sum counter: background tightening work,
	// in cost units).
	gapSum atomic.Uint64

	mu         sync.Mutex
	currentKey string
	cancelRun  context.CancelFunc
	lastScan   time.Time
	lastCands  []Candidate

	// cooldown backs off keys whose refinement errored (e.g. the
	// problem registry lost the key) so one bad key cannot monopolize
	// every cycle.
	cooldown map[string]time.Time
}

// New returns a started Refiner. It panics if cfg.Interval is not
// positive.
func New(cfg Config) *Refiner {
	if cfg.Interval <= 0 {
		panic("refine: Config.Interval must be > 0")
	}
	r := &Refiner{cfg: cfg.withDefaults(), cooldown: map[string]time.Time{}}
	r.base, r.stop = context.WithCancel(context.Background())
	r.wg.Add(1)
	go r.loop()
	return r
}

// Stop cancels the in-flight refinement (its partial interval still
// lands in the cache) and ends the loop. Safe to call repeatedly.
func (r *Refiner) Stop() {
	r.once.Do(r.stop)
	r.wg.Wait()
}

// Preempt cooperatively cancels the in-flight refinement, if any:
// called by the host the instant foreground work arrives. The canceled
// solve still certifies the interval it reached, so preemption trades
// refinement depth for foreground latency without wasting the work.
func (r *Refiner) Preempt() {
	r.mu.Lock()
	cancel := r.cancelRun
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Counters returns the monotone refiner counters for /metrics.
func (r *Refiner) Counters() (runs, tightened, preempted, gapSum uint64) {
	return r.runs.Load(), r.tightened.Load(), r.preempted.Load(), r.gapSum.Load()
}

// Status snapshots the refiner for /debug/refiner.
func (r *Refiner) Status() Status {
	busy := r.cfg.Busy != nil && r.cfg.Busy()
	r.mu.Lock()
	defer r.mu.Unlock()
	cands := make([]Candidate, len(r.lastCands))
	copy(cands, r.lastCands)
	return Status{
		Enabled:    true,
		IntervalMS: r.cfg.Interval.Milliseconds(),
		MaxTier:    maxTier,
		Busy:       busy,
		CurrentKey: r.currentKey,
		LastScan:   r.lastScan,
		Candidates: cands,
		Runs:       r.runs.Load(),
		Tightened:  r.tightened.Load(),
		Preempted:  r.preempted.Load(),
		Skipped:    r.skipped.Load(),
		GapSum:     r.gapSum.Load(),
	}
}

func (r *Refiner) loop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.base.Done():
			return
		case <-t.C:
		}
		if r.cfg.Busy != nil && r.cfg.Busy() {
			continue // foreground work pending: stay out of the way
		}
		r.cycle()
	}
}

// cycle runs one scan-and-refine pass: pick the top candidates by
// priority and escalate each one tier, re-checking the admission gate
// between solves.
func (r *Refiner) cycle() {
	cands := r.scan()
	refined := 0
	for _, c := range cands {
		if refined >= perCycle {
			return
		}
		select {
		case <-r.base.Done():
			return
		default:
		}
		if r.cfg.Busy != nil && r.cfg.Busy() {
			return // a burst arrived mid-cycle: yield immediately
		}
		refined++
		r.refine(c)
	}
}

// scan exports the cache and filters candidates through ownership,
// resolvability and cooldown.
func (r *Refiner) scan() []Candidate {
	all := Candidates(r.cfg.Export(), maxTier)
	now := time.Now()
	cands := all[:0]
	for _, c := range all {
		if r.cfg.Owns != nil && !r.cfg.Owns(c.Key) {
			continue
		}
		if r.cfg.Resolvable != nil && !r.cfg.Resolvable(c.Key) {
			r.skipped.Add(1)
			continue
		}
		r.mu.Lock()
		until, cooling := r.cooldown[c.Key]
		r.mu.Unlock()
		if cooling && now.Before(until) {
			continue
		}
		cands = append(cands, c)
	}
	r.mu.Lock()
	r.lastScan = now
	r.lastCands = append(r.lastCands[:0], cands...)
	if len(r.lastCands) > 8 {
		r.lastCands = r.lastCands[:8] // /debug/refiner shows the head
	}
	r.mu.Unlock()
	return cands
}

// refine escalates one candidate a tier and accounts the outcome.
func (r *Refiner) refine(c Candidate) {
	ctx, cancel := context.WithCancel(r.base)
	r.mu.Lock()
	r.currentKey, r.cancelRun = c.Key, cancel
	r.mu.Unlock()
	gapAfter, err := r.cfg.Solve(ctx, c.Key, c.Tier)
	preempted := ctx.Err() != nil && r.base.Err() == nil
	r.mu.Lock()
	r.currentKey, r.cancelRun = "", nil
	r.mu.Unlock()
	cancel()

	r.runs.Add(1)
	if preempted {
		r.preempted.Add(1)
	}
	if err != nil {
		r.skipped.Add(1)
		r.mu.Lock()
		r.cooldown[c.Key] = time.Now().Add(8 * r.cfg.Interval)
		r.mu.Unlock()
		r.cfg.Logf("refine: %s tier %d: %v", c.Key, c.Tier, err)
		return
	}
	if gapAfter < c.GapScaled {
		r.tightened.Add(1)
		r.gapSum.Add(uint64(c.GapScaled - gapAfter))
		r.cfg.Logf("refine: %s tier %d: gap %d -> %d (preempted=%t)",
			c.Key, c.Tier, c.GapScaled, gapAfter, preempted)
	}
}
