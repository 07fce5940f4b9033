package service

import (
	"sync"
	"sync/atomic"
)

// Lane names on the wire and in metrics labels.
const (
	laneFast  = "fast"
	laneHeavy = "heavy"
)

// lane is one bounded worker pool of the two-lane scheduler: a
// queue of closures drained by a fixed worker set. Submission is
// non-blocking — a full queue is the lane's admission-control signal
// (the caller sheds with 429 + Retry-After instead of queueing
// unboundedly behind multi-second solves).
type lane struct {
	name    string
	tasks   chan func()
	shed    atomic.Uint64
	workers int
}

func newLane(name string, workers, depth int) *lane {
	return &lane{name: name, tasks: make(chan func(), depth), workers: workers}
}

// depth reports the queued (not yet running) backlog.
func (l *lane) depth() int { return len(l.tasks) }

// submit enqueues f without blocking; false means the lane is
// saturated a full queue deep and the work must be shed.
func (l *lane) submit(f func()) bool {
	select {
	case l.tasks <- f:
		return true
	default:
		l.shed.Add(1)
		return false
	}
}

// run drains the lane until closed fires. Tasks still queued at close
// are dropped — submitters guard every wait on a task's completion
// with the same closed channel.
func (l *lane) run(closed <-chan struct{}, wg *sync.WaitGroup) {
	for i := 0; i < l.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-closed:
					return
				case f := <-l.tasks:
					f()
				}
			}
		}()
	}
}

// lanes is the node's one deadline-aware scheduler. Every solve runs on
// it: a single POST /solve, sync or async, is one work unit, and a
// batch contributes one unit per canonical-key group. Units are
// classified before they queue: work a cache probe can serve, and work
// whose whole budget is below the fast-lane threshold, rides the fast
// lane; everything that may hold a worker for a multi-second exact
// solve queues on the heavy lane. The split is what keeps a 2 ms cache
// hit from sitting behind a 3 s solve — head-of-line blocking across
// cost classes is structural, not a tuning accident.
type lanes struct {
	fast, heavy *lane
}

func newLanes(cfg Config) *lanes {
	return &lanes{
		fast:  newLane(laneFast, cfg.FastLaneWorkers, fastLaneQueue),
		heavy: newLane(laneHeavy, cfg.HeavyLaneWorkers, cfg.heavyLaneQueue),
	}
}

func (ls *lanes) run(closed <-chan struct{}, wg *sync.WaitGroup) {
	ls.fast.run(closed, wg)
	ls.heavy.run(closed, wg)
}

func (ls *lanes) byName(name string) *lane {
	if name == laneFast {
		return ls.fast
	}
	return ls.heavy
}
