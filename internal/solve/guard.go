package solve

import (
	"fmt"
	"time"
)

// searchGuard is the periodic gate every exact engine runs at its own
// checkpoint (serial A* every 1024 expansions, IDA* every 256 visits,
// the async coordinator on every poll): the cooperative cancel poll,
// the visited-table memory budget and the progress-sampler cadence. It
// also builds the ErrCanceled and ErrMemoryBudget abort errors. What
// it does not do is harvest the certified lower bound — each engine
// proves its bound differently, so each keeps its own harvest and hands
// the result to the guard's error constructors.
type searchGuard struct {
	cancel  <-chan struct{}
	budget  int64               // table byte budget (0 = unlimited)
	emit    func(ExactProgress) // progress listener (nil = none)
	sampler *progressSampler    // nil without a listener
}

func newSearchGuard(cancel <-chan struct{}, budget int64, emit func(ExactProgress), every time.Duration) searchGuard {
	g := searchGuard{cancel: cancel, budget: budget, emit: emit}
	if emit != nil {
		g.sampler = newProgressSampler(every)
	}
	return g
}

// searchPoint is where a search stood when it was stopped, for the
// abort error: n expansions counted in unit ("states" or "visits"),
// the certified lower bound, and the incumbent (-1: the engine keeps
// none).
type searchPoint struct {
	n         int64
	unit      string
	incumbent int64
	lower     int64
}

func (s searchPoint) String() string {
	if s.incumbent >= 0 {
		return fmt.Sprintf("%d %s (incumbent %d, lower bound %d)", s.n, s.unit, s.incumbent, s.lower)
	}
	return fmt.Sprintf("%d %s (lower bound %d)", s.n, s.unit, s.lower)
}

// canceled polls the cancel channel without blocking.
func (g *searchGuard) canceled() bool {
	if g.cancel == nil {
		return false
	}
	select {
	case <-g.cancel:
		return true
	default:
		return false
	}
}

// budgeted reports whether a table budget is set, so engines that
// publish their footprint only for the budget check can skip it.
func (g *searchGuard) budgeted() bool { return g.budget > 0 }

// overBudget reports whether tableBytes exceeds the budget.
func (g *searchGuard) overBudget(tableBytes int64) bool {
	return g.budget > 0 && tableBytes > g.budget
}

// check runs the cancel poll and then the budget check, and returns
// the abort error for whichever fired first (nil: keep searching).
func (g *searchGuard) check(tableBytes int64, at searchPoint) error {
	if g.canceled() {
		return g.canceledErr(at)
	}
	if g.overBudget(tableBytes) {
		return g.budgetErr(tableBytes, at)
	}
	return nil
}

// due reports whether a progress snapshot is due (never without a
// listener).
func (g *searchGuard) due() bool { return g.sampler != nil && g.sampler.due() }

// canceledErr is the ErrCanceled abort error.
func (g *searchGuard) canceledErr(at searchPoint) error {
	return fmt.Errorf("%w after %v", ErrCanceled, at)
}

// budgetErr is the ErrMemoryBudget abort error.
func (g *searchGuard) budgetErr(tableBytes int64, at searchPoint) error {
	return fmt.Errorf("%w: %d table bytes over budget %d after %v", ErrMemoryBudget, tableBytes, g.budget, at)
}
