package obs

import (
	"sync"
	"time"

	"rbpebble/internal/dag"
)

// Features is the per-instance feature vector the learned portfolio
// scheduler consumes: structural properties of the DAG plus the
// red-pebble slack that governs exact-solve hardness.
type Features struct {
	N     int `json:"n"`     // nodes
	M     int `json:"m"`     // edges
	Delta int `json:"delta"` // max in-degree
	R     int `json:"r"`     // red pebbles
	// RDeltaGap = R - Delta: slack above the in-degree bound. The
	// minimum feasible budget is Delta+1, so feasible instances have
	// gap >= 1; small gaps mean tightly constrained, hard instances.
	RDeltaGap int `json:"r_delta_gap"`
	// Depth is the number of vertices on a longest path — the
	// sequential backbone length.
	Depth int `json:"depth"`
	// MaxWidth / AvgWidth profile the topological level widths: how
	// much parallel slack the instance offers per depth layer.
	MaxWidth int     `json:"max_width"`
	AvgWidth float64 `json:"avg_width"`
	// FullEventDensity is the fraction of vertices whose in-degree
	// equals Delta — the vertices that force all Delta inputs red at
	// once and fire the arrival lower bound.
	FullEventDensity float64 `json:"full_event_density"`
}

// ComputeFeatures derives the feature vector for a DAG solved with r
// red pebbles. A cyclic graph (which the solve path rejects anyway)
// yields only the size fields.
func ComputeFeatures(g *dag.DAG, r int) Features {
	f := Features{N: g.N(), M: g.M(), R: r}
	f.Delta = g.MaxInDegree()
	f.RDeltaGap = r - f.Delta
	order, err := g.TopoOrder()
	if err != nil || f.N == 0 {
		return f
	}
	// Level of v = 1 + max level over predecessors; level widths give
	// the depth/width profile in one pass over the topo order.
	level := make([]int, f.N)
	depth := 0
	for _, v := range order {
		lv := 0
		for _, u := range g.Preds(v) {
			if level[u] > lv {
				lv = level[u]
			}
		}
		level[v] = lv + 1
		if level[v] > depth {
			depth = level[v]
		}
	}
	f.Depth = depth
	width := make([]int, depth+1)
	for _, lv := range level {
		width[lv]++
	}
	for _, w := range width[1:] {
		if w > f.MaxWidth {
			f.MaxWidth = w
		}
	}
	if depth > 0 {
		f.AvgWidth = float64(f.N) / float64(depth)
	}
	if f.Delta > 0 {
		full := 0
		for v := 0; v < f.N; v++ {
			if g.InDegree(dag.NodeID(v)) == f.Delta {
				full++
			}
		}
		f.FullEventDensity = float64(full) / float64(f.N)
	}
	return f
}

// SolveRecord is the per-solve telemetry row: one line of the feature
// store the portfolio scheduler trains on. Every completed solve —
// cache hit or cold exact run, finished or deadline-canceled — appends
// one.
type SolveRecord struct {
	TraceID  string    `json:"trace_id,omitempty"`
	Start    time.Time `json:"start"`
	Node     string    `json:"node,omitempty"` // filled by the proxy's fleet merge
	Features Features  `json:"features"`
	Model    string    `json:"model"`
	// Engine is the source of the served value: astar (the exact
	// engine), a heuristic such as topo-belady or greedy/..., or the
	// cache/warm provenance of a reused interval.
	Engine string `json:"engine"`
	// BudgetMS is the solve budget; Tier its cache credit bucket.
	BudgetMS int64 `json:"budget_ms"`
	Tier     int   `json:"tier"`
	// Disposition: hit | warm | shared | cold.
	Disposition string `json:"disposition"`
	Canceled    bool   `json:"canceled,omitempty"`
	Expanded    uint64 `json:"expanded,omitempty"`
	TableBytes  uint64 `json:"table_bytes,omitempty"`
	// PeakFrontier/PeakRate are the largest open-frontier size and
	// expansion rate (states/s) observed across the solve's search
	// snapshots (0 when no snapshots were sampled).
	PeakFrontier int64   `json:"peak_frontier,omitempty"`
	PeakRate     float64 `json:"peak_rate,omitempty"`
	// Certified interval in scaled cost units; Optimal when closed.
	LowerScaled int64   `json:"lower_scaled"`
	UpperScaled int64   `json:"upper_scaled"`
	Optimal     bool    `json:"optimal"`
	WallMS      float64 `json:"wall_ms"`
	Err         string  `json:"err,omitempty"`
}

// SolveLog is the in-memory telemetry ring, mirrored to an optional
// event log. Append is safe for concurrent use; the mirror is written
// under the same lock, so solve rows land in append order.
type SolveLog struct {
	mu     sync.Mutex
	cap    int
	ring   []SolveRecord
	next   int // ring write cursor
	full   bool
	total  uint64
	events *EventLog
}

// NewSolveLog creates a ring retaining up to capacity (> 0) records,
// mirroring each record to events as a solve row (nil events: no
// mirror).
func NewSolveLog(capacity int, events *EventLog) *SolveLog {
	return &SolveLog{cap: capacity, ring: make([]SolveRecord, capacity), events: events}
}

// Append records one solve.
func (l *SolveLog) Append(rec SolveRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.next] = rec
	l.next++
	if l.next == l.cap {
		l.next = 0
		l.full = true
	}
	l.total++
	l.events.Solve(rec)
}

// Recent returns up to n records, newest first. n <= 0 means all
// retained records.
func (l *SolveLog) Recent(n int) []SolveRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := l.next
	if l.full {
		size = l.cap
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]SolveRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.ring[(l.next-i+l.cap)%l.cap])
	}
	return out
}

// Total reports how many records have ever been appended (including
// ones the ring has since evicted).
func (l *SolveLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
