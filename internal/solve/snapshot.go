package solve

import (
	"time"

	"rbpebble/internal/obs"
)

// Engine-introspection snapshots. Every exact engine periodically fills
// an obs.SearchSnapshot (aliased as ExactProgress) with the live shape
// of its search — expansion rate, open-queue size and per-f histogram,
// state-table occupancy, frontier f/g, IDA* threshold schedule — on a
// time-based cadence controlled by ProgressEvery; IDA* also emits one
// at every completed threshold pass. The engines build the wire type
// directly, so there is no conversion layer between engine and client.
// The machinery here is shared: the sampler that turns wall-clock
// windows into rates and the queue/table accessors the builders read.
// Snapshots report -1 for "no frontier" so the values survive JSON
// encoding unscathed.

// defaultProgressEvery is the snapshot cadence when a Progress listener
// is attached but no explicit ProgressEvery is configured.
const defaultProgressEvery = 100 * time.Millisecond

// maxSnapshotBuckets caps the per-f histogram length in one snapshot
// (the live bucket range is tiny for every sane model, but pathological
// compcost scales could spread the frontier over thousands of levels).
const maxSnapshotBuckets = 32

// progressSampler owns the time-based snapshot cadence of one engine
// run: due() is the cheap gate the hot loop polls (one monotonic clock
// read), tick() advances the rate window when a snapshot is actually
// built. Engines create one only when a Progress listener is attached,
// so a nil-listener run pays a single nil check per gate visit.
type progressSampler struct {
	every time.Duration
	start time.Time
	last  time.Time
	lastN int
}

func newProgressSampler(every time.Duration) *progressSampler {
	if every <= 0 {
		every = defaultProgressEvery
	}
	now := time.Now()
	return &progressSampler{every: every, start: now, last: now}
}

// due reports whether the cadence interval has elapsed since the last
// snapshot.
func (s *progressSampler) due() bool {
	return time.Since(s.last) >= s.every
}

// tick advances the rate window: it returns the elapsed time since the
// search started in fractional milliseconds and the expansion rate
// (states/s) over the window since the previous tick, given the
// cumulative expansion count n.
func (s *progressSampler) tick(n int) (elapsedMS, rate float64) {
	now := time.Now()
	elapsedMS = float64(now.Sub(s.start)) / float64(time.Millisecond)
	if dt := now.Sub(s.last).Seconds(); dt > 0 {
		rate = float64(n-s.lastN) / dt
	}
	s.last, s.lastN = now, n
	return elapsedMS, rate
}

// load returns the probe-array load factor (distinct states per slot).
func (t *stateTable) load() float64 {
	if len(t.slots) == 0 {
		return 0
	}
	return float64(t.count()) / float64(len(t.slots))
}

// histogram appends one SearchBucket per nonempty f level (ascending f,
// at most maxSnapshotBuckets; the overflow heap — f >= bqMaxF — is
// summarized as a single bucket at its minimum f). Owner-thread only,
// like every other bucketQueue method.
func (q *bucketQueue) histogram(dst []obs.SearchBucket) []obs.SearchBucket {
	for f := q.cur; f < len(q.bks) && len(dst) < maxSnapshotBuckets; f++ {
		if n := len(q.bks[f].a); n > 0 {
			dst = append(dst, obs.SearchBucket{F: int64(f), Count: n})
		}
	}
	if len(q.over) > 0 && len(dst) < maxSnapshotBuckets {
		dst = append(dst, obs.SearchBucket{F: q.over[0].f, Count: len(q.over)})
	}
	return dst
}

// singleProgress builds the snapshot of a single-table, single-queue
// engine (the serial A* loop). Called on the solver goroutine with the
// structures quiescent.
func singleProgress(s *progressSampler, expanded, pushed int, lower int64, table *stateTable, open *bucketQueue) ExactProgress {
	elapsedMS, rate := s.tick(expanded)
	pr := ExactProgress{
		Engine:       "astar",
		ElapsedMS:    elapsedMS,
		Expanded:     int64(expanded),
		Rate:         rate,
		Pushed:       int64(pushed),
		Distinct:     int64(table.count()),
		LowerBound:   lower,
		FrontierSize: int64(open.len()),
		FrontierF:    -1,
		FrontierG:    -1,
		TableStates:  int64(table.count()),
		TableBytes:   table.bytes(),
		TableLoad:    table.load(),
	}
	if open.len() > 0 {
		pr.FrontierF, pr.FrontierG = open.top()
		pr.OpenBuckets = open.histogram(nil)
	}
	return pr
}
