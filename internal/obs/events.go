package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventRow is one row of a node's JSONL event log (rbserve -event-log):
// a solve's telemetry record or one live engine snapshot sampled
// during a solve. Both kinds carry the solve's trace ID, so a row
// correlates with its siblings and with /debug/trace/{id}.
type EventRow struct {
	Time     time.Time       `json:"time"`
	Kind     string          `json:"kind"` // "solve" | "snapshot"
	TraceID  string          `json:"trace_id,omitempty"`
	Solve    *SolveRecord    `json:"solve,omitempty"`
	Snapshot *SearchSnapshot `json:"snapshot,omitempty"`
}

// EventLog writes EventRows to one sink as JSON lines under a lock, so
// rows from concurrent solves never interleave. A nil *EventLog drops
// every event.
type EventLog struct {
	mu sync.Mutex
	w  io.Writer
}

// NewEventLog returns an event log writing to w, or nil when w is nil.
func NewEventLog(w io.Writer) *EventLog {
	if w == nil {
		return nil
	}
	return &EventLog{w: w}
}

// Solve writes a solve row for rec.
func (l *EventLog) Solve(rec SolveRecord) {
	if l == nil {
		return
	}
	l.write(EventRow{Kind: "solve", TraceID: rec.TraceID, Solve: &rec})
}

// Snapshot writes a snapshot row for one engine sample of the solve
// traced as traceID.
func (l *EventLog) Snapshot(traceID string, sn SearchSnapshot) {
	if l == nil {
		return
	}
	l.write(EventRow{Kind: "snapshot", TraceID: traceID, Snapshot: &sn})
}

func (l *EventLog) write(e EventRow) {
	e.Time = time.Now()
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.mu.Lock()
	l.w.Write(append(b, '\n'))
	l.mu.Unlock()
}
