package solve

import "unsafe"

// heapEntry is one open-list entry of the best-first search: f is the
// priority (g plus the admissible lower bound; equal to g when the
// heuristic is off), g the exact scaled path cost, and node the index of
// the searchNode that reached the state.
type heapEntry struct {
	f    int64
	g    int64
	node int32
}

// The open list is ordered by f with ties broken toward larger g
// (deeper states first), which crosses the zero-cost compute/delete
// plateaus of the base model sooner.
func entryLess(x, y heapEntry) bool {
	if x.f != y.f {
		return x.f < y.f
	}
	return x.g > y.g
}

// bqMaxF bounds the direct-indexed f range of the bucket queue.
// Scaled f values are tiny integers for every model at sane cost
// scales (tens to a few thousand); anything at or beyond this bound
// (pathological compcost EpsDenom choices) spills into a comparison
// heap so memory stays bounded by the frontier, never by the cost
// range.
const bqMaxF = 1 << 15

// bucketQueue is the open list of serial A*: a bucketed
// two-level f-ordered queue exploiting that scaled costs are small
// integers. The first level indexes buckets directly by f; the second
// level orders each bucket's entries by g (max-heap over (g, node)
// pairs — f is implicit, so stored entries are a third smaller than
// full heapEntry records). Pushing is O(1) plus a sift within one
// small bucket; popping advances a monotone minimum-bucket cursor
// (pushed entries can move it backward, so the cursor is a hint, not
// an assumption). Compared to the single binary heap over the whole
// frontier this turns every open-list operation from O(log frontier)
// on a pointer-chasing global array into O(log bucket) on the few
// cache lines of the one active f-level — and on the zero-cost
// plateaus that dominate these searches the active bucket is exactly
// the plateau being dived.
type bucketQueue struct {
	bks []gHeap // bks[f], grown to the largest f seen (< bqMaxF)
	cur int     // smallest possibly-nonempty bucket index
	n   int     // total entries, overflow included

	// spare recycles drained buckets' backing arrays. The frontier mass
	// moves through f levels as the search advances, so without
	// recycling every level would retain its own peak capacity — the
	// sum of per-level peaks approaches the total push count, far above
	// the live frontier. A drained bucket donates its array here and
	// the next growing bucket adopts the largest donation, so retained
	// memory tracks the peak live frontier and steady-state pushes
	// allocate nothing.
	spare [][]gEntry

	// over holds entries with f >= bqMaxF, ordered by entryLess. The
	// bucketed range always has priority, so the overflow heap is only
	// consulted when every bucket is empty.
	over []heapEntry
}

// bqMaxSpare bounds the recycling pool (a handful of f levels are ever
// active at once; anything beyond that is kept only if bigger than
// what the pool already holds).
const bqMaxSpare = 8

// gEntry is one second-level entry; its f is the index of the bucket
// holding it.
type gEntry struct {
	g    int64
	node int32
}

// gHeap is a max-heap on g (deeper states first within an f level).
type gHeap struct {
	a []gEntry
}

func (h *gHeap) push(e gEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[i].g <= h.a[p].g {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *gHeap) pop() gEntry {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h.a[l].g > h.a[big].g {
			big = l
		}
		if r < last && h.a[r].g > h.a[big].g {
			big = r
		}
		if big == i {
			break
		}
		h.a[i], h.a[big] = h.a[big], h.a[i]
		i = big
	}
	return top
}

func (q *bucketQueue) len() int { return q.n }

// bytes returns the queue's allocated capacity in bytes: the bucket
// index, every bucket's and recycled array's capacity, and the overflow
// heap.
func (q *bucketQueue) bytes() int64 {
	n := int64(cap(q.bks))*int64(unsafe.Sizeof(gHeap{})) + int64(cap(q.over))*int64(unsafe.Sizeof(heapEntry{}))
	for _, b := range q.bks {
		n += int64(cap(b.a)) * int64(unsafe.Sizeof(gEntry{}))
	}
	for _, a := range q.spare {
		n += int64(cap(a)) * int64(unsafe.Sizeof(gEntry{}))
	}
	return n
}

func (q *bucketQueue) push(e heapEntry) {
	q.n++
	if e.f >= bqMaxF {
		q.overPush(e)
		return
	}
	f := int(e.f)
	for len(q.bks) <= f {
		q.bks = append(q.bks, gHeap{})
	}
	if q.bks[f].a == nil && len(q.spare) > 0 {
		// Adopt the largest recycled array (donations are kept sorted
		// by capacity, largest last).
		last := len(q.spare) - 1
		q.bks[f].a = q.spare[last]
		q.spare[last] = nil
		q.spare = q.spare[:last]
	}
	q.bks[f].push(gEntry{g: e.g, node: e.node})
	if f < q.cur {
		q.cur = f
	}
}

// release donates an emptied bucket's backing array to the recycling
// pool, keeping the pool sorted by capacity and bounded (the smallest
// donation is dropped on overflow).
func (q *bucketQueue) release(f int) {
	a := q.bks[f].a[:0]
	q.bks[f].a = nil
	i := len(q.spare)
	if i == bqMaxSpare {
		if cap(a) <= cap(q.spare[0]) {
			return
		}
		copy(q.spare, q.spare[1:])
		i--
		q.spare = q.spare[:i]
	}
	for i > 0 && cap(q.spare[i-1]) > cap(a) {
		i--
	}
	q.spare = append(q.spare, nil)
	copy(q.spare[i+1:], q.spare[i:])
	q.spare[i] = a
}

// settle advances the minimum-bucket cursor to the first nonempty
// bucket (callers guarantee len() > 0; a cursor beyond the bucket range
// means the minimum lives in the overflow heap).
func (q *bucketQueue) settle() {
	for q.cur < len(q.bks) && len(q.bks[q.cur].a) == 0 {
		q.cur++
	}
}

// top returns the minimum entry's (f, g) without removing it. Callers
// must ensure len() > 0.
func (q *bucketQueue) top() (f, g int64) {
	q.settle()
	if q.cur < len(q.bks) {
		return int64(q.cur), q.bks[q.cur].a[0].g
	}
	return q.over[0].f, q.over[0].g
}

// pop removes and returns the minimum entry (smallest f, largest g
// within it). Callers must ensure len() > 0.
func (q *bucketQueue) pop() heapEntry {
	q.settle()
	q.n--
	if q.cur < len(q.bks) {
		e := q.bks[q.cur].pop()
		if len(q.bks[q.cur].a) == 0 && q.bks[q.cur].a != nil {
			q.release(q.cur)
		}
		return heapEntry{f: int64(q.cur), g: e.g, node: e.node}
	}
	return q.overPop()
}

func (q *bucketQueue) overPush(e heapEntry) {
	q.over = append(q.over, e)
	i := len(q.over) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(q.over[i], q.over[p]) {
			break
		}
		q.over[p], q.over[i] = q.over[i], q.over[p]
		i = p
	}
}

func (q *bucketQueue) overPop() heapEntry {
	top := q.over[0]
	last := len(q.over) - 1
	q.over[0] = q.over[last]
	q.over = q.over[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && entryLess(q.over[l], q.over[small]) {
			small = l
		}
		if r < last && entryLess(q.over[r], q.over[small]) {
			small = r
		}
		if small == i {
			break
		}
		q.over[i], q.over[small] = q.over[small], q.over[i]
		i = small
	}
	return top
}
