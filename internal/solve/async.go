package solve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/pebble"
)

// Asynchronous HDA*-style parallel exact solver. The state space is
// sharded by state hash — owner = hashKey(packed state) mod P, each
// worker owning its shard's open list, visited table and node log, so
// no locks guard the hot structures — and there are no global barriers:
// every worker loops { drain mailboxes, relax, expand, flush }
// continuously, so nobody idles waiting for the slowest shard.
//
// Proposals travel through per-edge mailboxes (one deposit box per
// ordered worker pair, so P^2 boxes and no cross-pair contention):
// senders batch proposals per destination and append a batch under a
// short lock; receivers swap the whole box out and relax locally.
//
// Without the global f-min barrier a worker may expand a state before
// its g is settled; when a cheaper path arrives later the owner
// re-relaxes and re-expands (best(ref) update + fresh push), which is
// the standard HDA* re-expansion rule and preserves exactness. Goals
// are never expanded; they update a shared incumbent. A frontier entry
// with f >= the frontier bound — the shared incumbent, lowered further
// by ExactOptions.PruneBound when a warm start supplies one — is
// useless under an admissible heuristic, so workers treat their heap as
// empty once its minimum reaches the bound, discard generated children
// whose g already reaches it at enqueue, and discard arrivals whose
// f = max(parent f, g+h) reaches it at relaxation. Exhaustion under a
// PruneBound with no incumbent found is the parallel analogue of the
// serial engine's ErrBoundExhausted optimality certificate.
//
// Unthrottled HDA* expands speculatively far beyond the true cost
// frontier (measured ~8x extra states on pyramid(5) R=4), so each
// worker continuously publishes its heap minimum in an atomic watermark
// and only expands entries at or below the smallest published f. This
// is not a barrier — nobody waits for a round or for stragglers; a
// blocked worker spins briefly, republishing its own watermark, and the
// holder of the global minimum always proceeds, so plateaus of equal f
// (ubiquitous here: computes and deletes are free in most models)
// expand concurrently across all shards. Entries cheaper than the
// watermark can still be in flight, so the watermark is only a
// throttle; exactness never depends on it.
//
// Separately from the throttle, the engine maintains a CERTIFIED
// mid-flight global f-min, streamed through ExactOptions.Progress: at
// every instant, every open obligation — a heap entry, a proposal
// pending in a mailbox, a proposal buffered in a sender's outbox, or an
// expansion in progress — is covered by a published floor no larger
// than its (eventual) f. Heap entries are covered by their owner's
// published floor; mailbox batches by the box's pending-minimum
// watermark (pendF, the smallest parent f of the batch, which is a
// valid lower bound on each child's completion cost because the
// parent's admissible f never exceeds cost-to-child plus the child's
// own completion cost); outbox batches and in-progress expansions by
// the owner's floor, which is lowered before the covering box watermark
// is consumed and only raised after the covered work is back in a heap.
// The coordinator merges floors and box watermarks (reading floors on
// both sides of the boxes, so neither the deposit nor the drain
// hand-off can slip between the reads), caps the merge by the
// incumbent, and streams the running max — a monotone certified lower
// bound on the optimum, with no stop-and-drain and no round barrier.
//
// Termination is detected with a counting protocol in the style of
// Safra's algorithm, with the coordinator playing the probe: global
// atomic counters of proposals sent and received, plus a per-worker
// passive flag (set only when the worker has no frontier work, empty
// inboxes and flushed outboxes). The coordinator declares termination
// only after reading sent == received between two observations of
// "everyone passive" with the sent counter unchanged — any message
// still in flight either keeps sent > received or bumps sent between
// the two reads. At that point no state with f < incumbent exists
// anywhere, so the incumbent is the proven optimum — the standard
// "incumbent <= global f-min" safety rule of parallel best-first search.

// parNode mirrors searchNode for the sharded search; parents live in the
// node log of another shard, so the reference is (shard, index).
type parNode struct {
	parentShard int32 // -1 for the root
	parentNode  int32
	ref         int32
	move        pebble.Move
}

// proposal is one successor handed from an expanding worker to the
// destination shard's owner. The packed key words travel in a parallel
// flat buffer (kw words per proposal, same order). Only g travels: the
// owning shard computes (and caches) the heuristic once per distinct
// state, so senders never re-estimate shared states. pf is the f of the
// generating expansion, used both as a pathmax floor on the child's
// priority and as the certified in-flight watermark of pending mailbox
// batches.
type proposal struct {
	hash       uint64
	g          int64
	pf         int64
	srcShard   int32 // shard owning the parent node
	parentNode int32
	move       pebble.Move
}

const (
	// asyncFlushBatch is the number of proposals buffered per
	// destination before an eager flush (outboxes are always flushed
	// fully at the end of every worker loop turn regardless).
	asyncFlushBatch = 64
	// asyncExpandBatch caps consecutive expansions between mailbox
	// drains, so cross-shard improvements are observed promptly.
	asyncExpandBatch = 256
)

// asyncTestDelay, when non-nil, is called before each state expansion
// with the worker id. Tests inject latency into chosen shards to
// exercise termination detection under pathological imbalance.
var asyncTestDelay func(worker int)

// asyncBatch is one flushed group of proposals (kw key words per
// proposal, in order). Batches change hands whole: the sender builds
// one, deposits the slices, and grabs recycled buffers, so no
// per-proposal copying happens at the mailbox and the steady state
// allocates nothing (receivers return drained buffers to the pool).
type asyncBatch struct {
	meta []proposal
	keys []uint64
	// Watermark summary of the batch, maintained by the sender: the
	// smallest parent f among the proposals (a certified floor on each
	// child's eventual f — see the package comment) and the largest
	// child g.
	minPF int64
	maxG  int64
}

// asyncBatchPool recycles batch buffers between receivers and senders.
var asyncBatchPool = sync.Pool{
	New: func() any {
		return &asyncBatch{
			meta:  make([]proposal, 0, asyncFlushBatch),
			keys:  make([]uint64, 0, asyncFlushBatch*8),
			minPF: costUnreached,
		}
	},
}

// asyncMailbox is one src->dst deposit box. pendF/pendG summarize the
// pending proposals — pendF is the smallest parent f and pendG the
// largest child g. They serve double duty: the throttle counts them so
// work in flight to an unscheduled worker stays visible (acute under
// GOMAXPROCS=1, where only one worker publishes at a time), and the
// certified-floor merge counts them so pending proposals are never
// overlooked by the mid-flight bound.
type asyncMailbox struct {
	mu      sync.Mutex
	batches []*asyncBatch
	pendF   atomic.Int64
	pendG   atomic.Int64
	// pendN counts the pending proposals (snapshot introspection only:
	// the coordinator sums it into per-worker mailbox depths; neither
	// the throttle nor the certified merge reads it).
	pendN atomic.Int64
}

// asyncShared is the state shared by all workers and the coordinator.
type asyncShared struct {
	nw       int
	kw       int
	prune    int64          // ExactOptions.PruneBound (0 = off); immutable
	budgeted bool           // a table budget is set: workers publish tableBytes
	boxes    []asyncMailbox // boxes[src*nw+dst]

	sent     atomic.Int64 // proposals deposited
	recv     atomic.Int64 // proposals consumed
	expanded atomic.Int64 // states expanded (for the budget and stats)
	done     atomic.Bool  // optimum proven
	abort    atomic.Bool  // state budget exhausted
	stop     atomic.Bool  // cancellation requested: drain to quiescence, expand nothing
	passive  []atomic.Bool
	// tableBytes mirrors each worker's table footprint for the
	// coordinator's memory-budget check. Unlike the wstats mirror it is
	// published whenever a budget is set, Progress listener or not.
	tableBytes []atomic.Int64
	fmins      []atomic.Int64 // per-worker published heap minimum (the watermark)
	gtops      []atomic.Int64 // g of the same top entry (for the plateau dive window)
	floors     []atomic.Int64 // per-worker certified floor (heap min lowered to cover in-flight work)
	wmF        atomic.Int64   // cached merged watermark f (throttle fast path)
	wmG        atomic.Int64   // cached merged watermark g

	incMu    sync.Mutex
	incG     atomic.Int64
	incShard int32
	incNode  int32

	// wantStats gates the per-worker stat mirror below: workers copy
	// their private counters into these atomics once per loop turn (in
	// publish) only when a Progress listener wants snapshots, so a
	// listener-free run pays one predictable branch per turn.
	wantStats bool
	wstats    []asyncWorkerStats
}

// asyncWorkerStats is one worker's published introspection mirror,
// read by the coordinator when it builds a snapshot.
type asyncWorkerStats struct {
	expanded   atomic.Int64
	pushed     atomic.Int64
	openLen    atomic.Int64
	tableCount atomic.Int64
	tableBytes atomic.Int64
	tableSlots atomic.Int64
}

// improve lowers the shared incumbent (cold path: goals are rare).
func (sh *asyncShared) improve(g int64, shard, node int32) {
	sh.incMu.Lock()
	if g < sh.incG.Load() {
		sh.incG.Store(g)
		sh.incShard, sh.incNode = shard, node
	}
	sh.incMu.Unlock()
}

// frontierBound returns the exclusive upper bound on useful frontier f
// values: the shared incumbent, lowered further by the caller's
// PruneBound. Entries, proposals and arrivals at or beyond it cannot
// improve on what is already known.
func (sh *asyncShared) frontierBound() int64 {
	b := sh.incG.Load()
	if sh.prune > 0 && sh.prune < b {
		b = sh.prune
	}
	return b
}

// certifiedMin merges the per-worker floors, the mailbox pending
// watermarks and the incumbent into the certified global minimum: a
// lower bound on the optimum valid at some instant during the call.
// Floors are read on both sides of the boxes: a deposit lowers the box
// watermark before its sender's floor rises (so the first floor pass
// covers it), and a drain lowers the receiver's floor before the box
// watermark clears (so the second floor pass covers it) — whichever
// side of the hand-off the box read lands on, one floor pass saw a
// covering value.
func (sh *asyncShared) certifiedMin() int64 {
	m := int64(costUnreached)
	for i := range sh.floors {
		if v := sh.floors[i].Load(); v < m {
			m = v
		}
	}
	for i := range sh.boxes {
		if v := sh.boxes[i].pendF.Load(); v < m {
			m = v
		}
	}
	for i := range sh.floors {
		if v := sh.floors[i].Load(); v < m {
			m = v
		}
	}
	if g := sh.incG.Load(); g < m {
		m = g
	}
	return m
}

// asyncWorker is one shard owner of the async engine.
type asyncWorker struct {
	id    int32
	ctx   *searchCtx
	table *stateTable // payloadWithH: best cost + cached heuristic per ref
	open  bucketQueue
	nodes []parNode

	out      []*asyncBatch // out[dst], buffered until flush
	outMin   int64         // min parent f across unflushed outbox batches
	expanded int           // local counters, aggregated into stats at the end
	pushed   int

	lastF, lastG int64 // last published watermark values (-1: none yet)
	lastFloor    int64 // last published certified floor
	wmAge        int   // pops since the last full watermark recompute
}

func exactAsync(p Problem, opts ExactOptions, start *pebble.State, maxStates int) (Solution, error) {
	nw := opts.Parallel
	kw := start.PackedWords()
	base := newSearchCtx(p, opts, start)
	guard := newSearchGuard(opts.Cancel, opts.MaxTableBytes, opts.Progress, opts.ProgressEvery)
	sh := &asyncShared{
		nw:         nw,
		kw:         kw,
		prune:      opts.PruneBound,
		budgeted:   guard.budgeted(),
		boxes:      make([]asyncMailbox, nw*nw),
		passive:    make([]atomic.Bool, nw),
		fmins:      make([]atomic.Int64, nw),
		gtops:      make([]atomic.Int64, nw),
		floors:     make([]atomic.Int64, nw),
		tableBytes: make([]atomic.Int64, nw),
	}
	sh.wantStats = opts.Progress != nil
	if sh.wantStats {
		sh.wstats = make([]asyncWorkerStats, nw)
	}
	sh.incG.Store(costUnreached)
	for i := range sh.fmins {
		sh.fmins[i].Store(costUnreached)
		sh.floors[i].Store(costUnreached)
	}
	for i := range sh.boxes {
		sh.boxes[i].pendF.Store(costUnreached)
	}
	workers := make([]*asyncWorker, nw)
	for i := range workers {
		ctx := base
		if i > 0 {
			ctx = base.cloneForWorker(start)
		}
		w := &asyncWorker{
			id:        int32(i),
			ctx:       ctx,
			table:     newStateTable(kw, payloadWithH, 256),
			out:       make([]*asyncBatch, nw),
			outMin:    costUnreached,
			lastF:     -1,
			lastG:     -1,
			lastFloor: costUnreached,
		}
		for d := range w.out {
			w.out[d] = asyncBatchPool.Get().(*asyncBatch)
		}
		workers[i] = w
	}

	var lowerBound int64
	report := func() {
		if opts.Stats != nil {
			var st ExactStats
			for _, w := range workers {
				st.Expanded += w.expanded
				st.Pushed += w.pushed
				st.Distinct += w.table.count()
				st.TableBytes += w.table.bytes()
			}
			st.LowerBound = lowerBound
			*opts.Stats = st
		}
	}

	rootKey := start.AppendPacked(nil)
	rootHash := hashKey(rootKey)
	h0, dead := base.lb.estimate(start)
	if dead {
		report()
		return Solution{}, ErrInfeasible
	}
	rw := workers[rootHash%uint64(nw)]
	rootRef, _ := rw.table.lookupOrAdd(rootKey, rootHash)
	rw.table.setBest(rootRef, 0)
	rw.table.setH(rootRef, h0)
	rw.nodes = append(rw.nodes, parNode{parentShard: -1, parentNode: -1, ref: rootRef})
	rw.open.push(heapEntry{f: h0, g: 0, node: 0})
	rw.pushed = 1
	// Publish the root floor before any worker runs, so the certified
	// merge never observes an all-empty frontier while the root entry is
	// the only obligation.
	rw.lastFloor = h0
	sh.floors[rw.id].Store(h0)

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *asyncWorker) {
			defer wg.Done()
			w.run(sh)
		}(w)
	}

	// Certified running-max lower bound, seeded from the root estimate
	// and the caller's already-certified floor (warm start). The
	// coordinator raises it from the in-flight-aware certified merge and
	// streams every improvement through Progress — the mid-flight bound
	// the anytime orchestrator consumes under Workers > 1.
	certLower := max(h0, opts.InitialLowerBound)

	// Coordinator: poll the state budget, watch for cancellation, raise
	// and stream the certified bound, and run the termination probe. The
	// poll interval escalates so that long solves are not taxed by
	// coordinator wakeups (the workers keep the watermark cache fresh
	// themselves); short solves still terminate within ~20us. A
	// cancellation does not kill the workers outright: it flips the stop
	// flag so they cease expanding but keep draining mailboxes, and the
	// ordinary counting probe then detects the quiescent point — at
	// which every generated proposal sits relaxed in some shard heap, so
	// the heap tops are the full open frontier and their minimum is the
	// final (tightest) certified lower bound on the optimum.
	coSleep := 20 * time.Microsecond
	var overBytes int64 // table footprint that tripped the budget (0: none)
	for {
		if sh.expanded.Load() > int64(maxStates) {
			sh.abort.Store(true)
			break
		}
		if sh.budgeted {
			var tb int64
			for i := range sh.tableBytes {
				tb += sh.tableBytes[i].Load()
			}
			if guard.overBudget(tb) {
				overBytes = tb
				sh.abort.Store(true)
				break
			}
		}
		if !sh.stop.Load() && guard.canceled() {
			sh.stop.Store(true)
		}
		improved := false
		if v := sh.certifiedMin(); v != costUnreached && v > certLower {
			certLower = v
			improved = true
		}
		// Snapshot on every certified-bound improvement (the anytime
		// layer wants those promptly) and on the time cadence between
		// improvements, so a long plateau still streams live stats.
		if guard.emit != nil && (improved || guard.due()) {
			guard.emit(sh.snapshot(guard.sampler, certLower))
		}
		if sh.terminated() {
			sh.done.Store(true)
			break
		}
		time.Sleep(coSleep)
		if coSleep < 200*time.Microsecond {
			coSleep += 10 * time.Microsecond
		}
	}
	wg.Wait()
	if sh.abort.Load() {
		// The workers quit mid-flight, so mailbox batches may still hold
		// unrelaxed proposals — but the streamed running max was
		// certified at instants when they were all accounted for, so it
		// survives the abort.
		lowerBound = certLower
		report()
		if overBytes > 0 {
			return Solution{}, guard.budgetErr(overBytes, searchPoint{n: sh.expanded.Load(), unit: "states", incumbent: -1, lower: lowerBound})
		}
		return Solution{}, fmt.Errorf("%w: %d states", ErrStateLimit, maxStates)
	}
	incG := sh.incG.Load()
	minTop := int64(costUnreached)
	for _, w := range workers {
		if w.open.len() > 0 {
			if f, _ := w.open.top(); f < minTop {
				minTop = f
			}
		}
	}
	// The solve is finished (rather than cut mid-flight) when the
	// frontier can no longer improve on what is known: emptied past the
	// incumbent, exhausted entirely, or — under a PruneBound with no
	// incumbent — emptied past the bound, which is the exhaustion
	// certificate.
	finished := (incG != costUnreached && minTop >= incG) ||
		(incG == costUnreached && minTop == costUnreached) ||
		(sh.prune > 0 && incG == costUnreached && minTop >= sh.prune)
	if sh.stop.Load() && !finished {
		// Canceled before the optimum was proven: harvest the certified
		// frontier bound at quiescence, never below the streamed running
		// max.
		lowerBound = max(certLower, min(minTop, incG))
		report()
		return Solution{}, guard.canceledErr(searchPoint{n: sh.expanded.Load(), unit: "states", incumbent: -1, lower: lowerBound})
	}
	if incG == costUnreached {
		if sh.prune > 0 {
			// Every branch was cut at f >= PruneBound and the mailboxes
			// drained to quiescence: no completion below the bound
			// exists. This is the async analogue of the serial engine's
			// bound-exhaustion certificate — the optimum is at least
			// PruneBound, so a warm-started refinement has just proven
			// its cached incumbent optimal.
			lowerBound = max(certLower, sh.prune)
			report()
			return Solution{}, fmt.Errorf("%w: no completion below bound %d", ErrBoundExhausted, sh.prune)
		}
		report()
		return Solution{}, errors.New("solve: state space exhausted without completing (unreachable for feasible R)")
	}
	lowerBound = incG // proven optimal
	report()

	logs := make([][]parNode, nw)
	for i, w := range workers {
		logs[i] = w.nodes
	}
	return shardTrace(p, logs, sh.incShard, sh.incNode), nil
}

// terminated runs one round of the counting probe: everyone passive,
// sent == received, and sent unchanged across a second passivity check.
func (sh *asyncShared) terminated() bool {
	s1 := sh.sent.Load()
	if sh.recv.Load() != s1 {
		return false
	}
	for i := range sh.passive {
		if !sh.passive[i].Load() {
			return false
		}
	}
	return sh.sent.Load() == s1
}

// run is the worker main loop.
func (w *asyncWorker) run(sh *asyncShared) {
	spins := 0
	backoff := time.Microsecond
	// wait backs off exponentially so that idle workers get out of the
	// scheduler's way instead of stealing timeslices from the watermark
	// holder (which is what turns a 1-core run into a spin contest).
	wait := func() {
		if spins++; spins < 4 {
			runtime.Gosched()
			return
		}
		time.Sleep(backoff)
		if backoff < 256*time.Microsecond {
			backoff *= 2
		}
	}
	for {
		if sh.done.Load() || sh.abort.Load() {
			return
		}
		got := w.drain(sh) + w.drainSelf(sh)
		did := w.expand(sh)
		w.flushAll(sh)
		w.publish(sh)
		if got > 0 || did > 0 {
			spins, backoff = 0, time.Microsecond
			continue
		}
		if !sh.stop.Load() && w.open.len() > 0 {
			if f, _ := w.open.top(); f < sh.frontierBound() {
				// Blocked behind the watermark: useful frontier exists but
				// a cheaper one lives on another shard. Stay active (never
				// passive) and retry; the watermark holder always
				// advances. (Under a stop request the frontier is
				// deliberately left unexpanded, so fall through to passive
				// instead: quiescence is what the coordinator is waiting
				// to observe.)
				wait()
				continue
			}
		}
		// Out of useful work entirely: go passive until a proposal
		// arrives (the frontier cannot regrow on its own).
		sh.passive[w.id].Store(true)
		for {
			if sh.done.Load() || sh.abort.Load() {
				return
			}
			if w.inboxPending(sh) {
				sh.passive[w.id].Store(false)
				spins, backoff = 0, time.Microsecond
				break
			}
			wait()
		}
	}
}

// publish stores this worker's current heap top (f and g) in its
// watermark slots (skipped when unchanged since the last publish) and
// refreshes its certified floor to cover the heap and any still-
// unflushed outbox work (the self outbox can hold proposals between
// loop turns).
func (w *asyncWorker) publish(sh *asyncShared) {
	f, g := int64(costUnreached), int64(0)
	if w.open.len() > 0 {
		f, g = w.open.top()
	}
	w.publishFloor(sh, min(f, w.outMin))
	if sh.budgeted {
		sh.tableBytes[w.id].Store(w.table.bytes())
	}
	if sh.wantStats {
		ws := &sh.wstats[w.id]
		ws.expanded.Store(int64(w.expanded))
		ws.pushed.Store(int64(w.pushed))
		ws.openLen.Store(int64(w.open.len()))
		ws.tableCount.Store(int64(w.table.count()))
		ws.tableBytes.Store(w.table.bytes())
		ws.tableSlots.Store(int64(len(w.table.slots)))
	}
	if f == w.lastF && g == w.lastG {
		return
	}
	w.lastF, w.lastG = f, g
	sh.gtops[w.id].Store(g)
	sh.fmins[w.id].Store(f)
}

// publishFloor stores this worker's certified floor (only the owner
// ever writes it, so the cached last value is authoritative).
func (w *asyncWorker) publishFloor(sh *asyncShared, v int64) {
	if v != w.lastFloor {
		w.lastFloor = v
		sh.floors[w.id].Store(v)
	}
}

// recomputeOutMin refreshes the unflushed-outbox floor component after
// a batch left the outboxes (flush hand-off or self drain).
func (w *asyncWorker) recomputeOutMin() {
	m := int64(costUnreached)
	for _, ba := range w.out {
		if ba.minPF < m {
			m = ba.minPF
		}
	}
	w.outMin = m
}

// asyncDiveWindow is the g-window within an f-plateau: a worker expands
// a plateau entry only when its g is within the window of the deepest
// published plateau entry. Zero-cost moves (computes and deletes in
// most models) make the goal's f-level one huge plateau; the serial
// queue's deeper-g-first tie-break dives straight through it, and the
// window makes the sharded search follow the same dive as a relay
// instead of flooding the plateau breadth-first, while still letting
// several shards work the dive front concurrently.
const asyncDiveWindow = 2

// watermark recomputes the merged watermark — the smallest published f
// across shard heaps and pending mailboxes, and the largest g published
// at that f — and refreshes the cached copy. Expansion reads only the
// cache (two atomic loads per pop); workers run the full scan whenever
// the cache tells them to block (it may be stale-low after the front
// advanced) and unconditionally every 64 pops (a stale-high cache
// would let them overshoot silently), which bounds the cache staleness
// in both directions (staleness is harmless regardless: the watermark
// is a throttle, not a correctness gate — the certified bound is
// maintained separately via the floors).
func (sh *asyncShared) watermark() (f, g int64) {
	f = costUnreached
	for i := range sh.fmins {
		fi := sh.fmins[i].Load()
		gi := sh.gtops[i].Load()
		if fi < f {
			f, g = fi, gi
		} else if fi == f && gi > g {
			g = gi
		}
	}
	for i := range sh.boxes {
		fi := sh.boxes[i].pendF.Load()
		if fi == costUnreached {
			continue
		}
		gi := sh.boxes[i].pendG.Load()
		if fi < f {
			f, g = fi, gi
		} else if fi == f && gi > g {
			g = gi
		}
	}
	sh.wmF.Store(f)
	sh.wmG.Store(g)
	return f, g
}

// inboxPending reports whether any mailbox addressed to this worker
// holds proposals (lock-free peek on the pending watermark; a false
// negative is retried, a false positive drains empty).
func (w *asyncWorker) inboxPending(sh *asyncShared) bool {
	for src := 0; src < sh.nw; src++ {
		if sh.boxes[src*sh.nw+int(w.id)].pendF.Load() != costUnreached {
			return true
		}
	}
	return false
}

// drain consumes every pending proposal addressed to this worker,
// relaxing each into the local table and open list, and returns how
// many proposals it consumed. Before a box's pending watermark is
// cleared the worker lowers its own floor to the box's value, so the
// proposals stay covered by the certified merge while they move from
// the box into the heap.
func (w *asyncWorker) drain(sh *asyncShared) int {
	total := 0
	for src := 0; src < sh.nw; src++ {
		b := &sh.boxes[src*sh.nw+int(w.id)]
		if b.pendF.Load() == costUnreached {
			continue // lock-free empty peek (a racing deposit is seen next turn)
		}
		b.mu.Lock()
		// The watermark must be re-read under the lock: a deposit can
		// land between the peek above and here, lowering pendF below the
		// peeked value — and that batch is about to be taken too, so the
		// floor must cover it before the watermark is cleared (flush
		// updates pendF under this same lock, so this read is the true
		// minimum over every batch being taken).
		w.publishFloor(sh, min(w.lastFloor, b.pendF.Load()))
		batches := b.batches
		b.batches = nil
		b.pendF.Store(costUnreached)
		b.pendG.Store(0)
		b.pendN.Store(0)
		b.mu.Unlock()
		for _, ba := range batches {
			w.relaxBatch(sh, ba.meta, ba.keys)
			sh.recv.Add(int64(len(ba.meta)))
			total += len(ba.meta)
			ba.meta, ba.keys = ba.meta[:0], ba.keys[:0]
			ba.minPF, ba.maxG = costUnreached, 0
			asyncBatchPool.Put(ba)
		}
	}
	return total
}

// relaxBatch merges one mailbox batch (kw key words per proposal, in
// order) into the local table and open list. The pushed
// priority is the pathmax f = max(parent f, g + h): the parent's
// admissible f never exceeds the cost of any completion through the
// child, so raising the child to it keeps every certificate valid while
// tightening both the queue order and the bound-discard below.
func (w *asyncWorker) relaxBatch(sh *asyncShared, meta []proposal, keys []uint64) {
	kw := w.table.kw
	for i, pr := range meta {
		key := keys[i*kw : (i+1)*kw]
		ref, isNew := w.table.lookupOrAdd(key, pr.hash)
		if isNew {
			w.ctx.scratch.RestorePacked(key)
			h, dead := w.ctx.lb.estimate(w.ctx.scratch)
			w.table.setH(ref, h)
			if dead {
				w.table.setBest(ref, costDead)
			}
		}
		if w.table.best(ref) <= pr.g {
			continue
		}
		f := pr.g + w.table.h(ref)
		if pr.pf > f {
			f = pr.pf
		}
		if f >= sh.frontierBound() {
			// No completion through this arrival can improve on the
			// incumbent or stay below the caller's PruneBound. Leave best
			// at costUnreached so a strictly cheaper arrival may still
			// reopen the state (its h stays cached for that reopening).
			continue
		}
		w.table.setBest(ref, pr.g)
		w.nodes = append(w.nodes, parNode{
			parentShard: pr.srcShard, parentNode: pr.parentNode,
			ref: ref, move: pr.move,
		})
		w.open.push(heapEntry{f: f, g: pr.g, node: int32(len(w.nodes) - 1)})
		w.pushed++
	}
}

// expand pops up to asyncExpandBatch useful entries, generating
// successor proposals into the outboxes (flushed eagerly per
// destination once a batch accumulates). Returns the number of entries
// it retired (including stale pops, which also shrink the frontier).
func (w *asyncWorker) expand(sh *asyncShared) int {
	c := w.ctx
	did := 0
	for did < asyncExpandBatch && w.open.len() > 0 {
		if sh.stop.Load() {
			break // canceled: stop generating work, keep draining
		}
		top, topG := w.open.top()
		// Refresh the certified floor first: it must cover the entry
		// about to be popped (and the children it will buffer) for the
		// whole expansion.
		w.publishFloor(sh, min(top, w.outMin))
		bound := sh.frontierBound()
		if top >= bound {
			// Under an admissible bound nothing at or beyond the
			// incumbent (or the caller's PruneBound) can improve it: the
			// frontier is exhausted.
			break
		}
		// Throttle on the watermark (which includes our own top, so the
		// global minimum holder always proceeds).
		if top != w.lastF || topG != w.lastG {
			w.lastF, w.lastG = top, topG
			sh.gtops[w.id].Store(topG)
			sh.fmins[w.id].Store(top)
		}
		wmF, wmG := sh.wmF.Load(), sh.wmG.Load()
		if w.wmAge++; w.wmAge >= 64 || top > wmF || topG+asyncDiveWindow < wmG {
			// Full scan when the cache says block (it may simply be
			// stale after the front advanced) and periodically (a
			// too-permissive stale cache means silent overshoot).
			w.wmAge = 0
			wmF, wmG = sh.watermark()
		}
		if top > wmF || topG+asyncDiveWindow < wmG {
			break
		}
		e := w.open.pop()
		did++
		nd := w.nodes[e.node]
		if e.g > w.table.best(nd.ref) {
			continue // stale
		}
		if asyncTestDelay != nil {
			asyncTestDelay(int(w.id))
		}
		key := w.table.key(nd.ref)
		c.scratch.RestorePacked(key)
		if c.scratch.Complete() {
			sh.improve(e.g, w.id, e.node)
			continue
		}
		w.expanded++
		if w.expanded&63 == 0 {
			sh.expanded.Add(64) // batched: the budget check tolerates slack
			if sh.abort.Load() {
				return did
			}
		}
		c.moveBuf = c.moveBuf[:0]
		c.appendMoves(c.scratch, key)
		for _, m := range c.moveBuf {
			undo, err := c.scratch.ApplyForUndo(m)
			if err != nil {
				panic("solve: appendMoves emitted illegal move: " + err.Error())
			}
			childG := e.g + c.moveCost(m)
			if childG >= bound {
				// Enqueue-side discard: h >= 0, so the child's f already
				// reaches the bound — it could never be popped. Dropping
				// it here saves the mailbox round-trip entirely.
				c.scratch.Undo(undo)
				continue
			}
			c.keyBuf = c.scratch.AppendPacked(c.keyBuf[:0])
			ch := hashKey(c.keyBuf)
			d := int(ch % uint64(sh.nw))
			ba := w.out[d]
			ba.meta = append(ba.meta, proposal{
				hash: ch, g: childG, pf: e.f, srcShard: w.id, parentNode: e.node, move: m,
			})
			ba.keys = append(ba.keys, c.keyBuf...)
			if e.f < ba.minPF {
				ba.minPF = e.f
			}
			if e.f < w.outMin {
				w.outMin = e.f
			}
			if childG > ba.maxG {
				ba.maxG = childG
			}
			c.scratch.Undo(undo)
			if d != int(w.id) && len(ba.meta) >= asyncFlushBatch {
				w.flush(sh, d)
			}
		}
	}
	return did
}

// drainSelf relaxes the proposals this worker buffered for its own
// shard. They are never relaxed inline during expansion: relaxBatch
// restores arbitrary states onto the shared scratch, which would
// corrupt the apply/undo chain mid-expansion. The floor stays at or
// below the batch minimum throughout (outMin covers the batch until it
// is reset, and the floor is only raised later, after the entries are
// in the heap).
func (w *asyncWorker) drainSelf(sh *asyncShared) int {
	ba := w.out[w.id]
	n := len(ba.meta)
	if n == 0 {
		return 0
	}
	w.relaxBatch(sh, ba.meta, ba.keys)
	ba.meta, ba.keys = ba.meta[:0], ba.keys[:0]
	ba.minPF, ba.maxG = costUnreached, 0
	w.recomputeOutMin()
	return n
}

// flush deposits the buffered proposals for destination d (never the
// worker's own shard — see drainSelf). The batch changes hands whole;
// a recycled buffer replaces it on the sender. The box watermark is
// lowered under the lock before the sender's own floor component is
// allowed to rise (recomputeOutMin), so the batch is covered by one or
// the other at every instant.
func (w *asyncWorker) flush(sh *asyncShared, d int) {
	ba := w.out[d]
	if len(ba.meta) == 0 {
		return
	}
	n := int64(len(ba.meta)) // before the deposit: ba changes hands there
	b := &sh.boxes[int(w.id)*sh.nw+d]
	b.mu.Lock()
	b.batches = append(b.batches, ba)
	if ba.minPF < b.pendF.Load() {
		b.pendF.Store(ba.minPF)
	}
	if ba.maxG > b.pendG.Load() {
		b.pendG.Store(ba.maxG)
	}
	b.pendN.Add(n)
	b.mu.Unlock()
	// Counted after the deposit: a probe that misses this increment
	// sees either recv < sent or a sent change on its re-read, and a
	// worker is only observed passive after its flush completes.
	sh.sent.Add(n)
	w.out[d] = asyncBatchPool.Get().(*asyncBatch)
	w.recomputeOutMin()
}

// flushAll publishes every cross-shard outbox (required before going
// passive; the self outbox is empty by then, drained each loop turn).
func (w *asyncWorker) flushAll(sh *asyncShared) {
	for d := 0; d < sh.nw; d++ {
		if d != int(w.id) {
			w.flush(sh, d)
		}
	}
}

// snapshot assembles the coordinator-side introspection snapshot from
// the workers' published stat mirrors, the watermark/floor slots and
// the mailbox pending counters. Everything read here is an atomic the
// workers keep fresh (publish runs once per worker loop turn), so the
// snapshot is a consistent-enough instant without stopping anyone.
// Only called with wantStats set (wstats non-nil).
func (sh *asyncShared) snapshot(s *progressSampler, lower int64) ExactProgress {
	expanded := int(sh.expanded.Load())
	elapsed, rate := s.tick(expanded)
	pr := ExactProgress{
		Engine:     "async-hda",
		Expanded:   expanded,
		LowerBound: lower,
		Elapsed:    elapsed,
		Rate:       rate,
		FrontierF:  -1,
		FrontierG:  -1,
		SafraSent:  sh.sent.Load(),
		SafraRecv:  sh.recv.Load(),
		Workers:    make([]WorkerProgress, sh.nw),
	}
	var slots int64
	for i := 0; i < sh.nw; i++ {
		ws := &sh.wstats[i]
		wp := WorkerProgress{
			ID:         i,
			Expanded:   int(ws.expanded.Load()),
			Pushed:     int(ws.pushed.Load()),
			OpenSize:   int(ws.openLen.Load()),
			HeapMinF:   normF(sh.fmins[i].Load()),
			Floor:      normF(sh.floors[i].Load()),
			TableCount: int(ws.tableCount.Load()),
			TableBytes: ws.tableBytes.Load(),
			Passive:    sh.passive[i].Load(),
		}
		for src := 0; src < sh.nw; src++ {
			wp.MailboxDepth += int(sh.boxes[src*sh.nw+i].pendN.Load())
		}
		pr.Pushed += wp.Pushed
		pr.Distinct += wp.TableCount
		pr.OpenSize += wp.OpenSize
		pr.TableBytes += wp.TableBytes
		slots += ws.tableSlots.Load()
		if f := sh.fmins[i].Load(); f != costUnreached && (pr.FrontierF < 0 || f < pr.FrontierF) {
			pr.FrontierF = f
			pr.FrontierG = sh.gtops[i].Load()
		}
		pr.Workers[i] = wp
	}
	if slots > 0 {
		pr.TableLoad = float64(pr.Distinct) / float64(slots)
	}
	return pr
}

// shardTrace reconstructs the incumbent's move chain across the
// per-shard node logs.
func shardTrace(p Problem, logs [][]parNode, shard, node int32) Solution {
	var rev []pebble.Move
	s, n := shard, node
	for {
		nd := logs[s][n]
		if nd.parentShard < 0 {
			break
		}
		rev = append(rev, nd.move)
		s, n = nd.parentShard, nd.parentNode
	}
	moves := make([]pebble.Move, len(rev))
	for i := range rev {
		moves[i] = rev[len(rev)-1-i]
	}
	tr := &pebble.Trace{Model: p.Model, R: p.R, Convention: p.Convention, Moves: moves}
	return verify(p, tr)
}
