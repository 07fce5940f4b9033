package obs

import "sync"

// Recorder retains the most recent traces for /debug/trace lookup. It
// is a fixed-capacity ring keyed by trace ID: registering past
// capacity evicts the oldest trace. Duplicate IDs (a client reusing a
// header across requests) keep the most recent registration.
type Recorder struct {
	mu    sync.Mutex
	cap   int
	order []string // ring of IDs in arrival order
	byID  map[string]*Trace
}

// NewRecorder creates a recorder retaining up to capacity (> 0) traces.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{cap: capacity, byID: make(map[string]*Trace, capacity)}
}

// Register retains tr, evicting the oldest trace when full.
func (r *Recorder) Register(tr *Trace) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[tr.ID]; ok {
		r.byID[tr.ID] = tr // re-registration: newest wins, keep ring slot
		return
	}
	for len(r.order) >= r.cap {
		old := r.order[0]
		r.order = r.order[1:]
		delete(r.byID, old)
	}
	r.order = append(r.order, tr.ID)
	r.byID[tr.ID] = tr
}

// Lookup returns the retained trace for id, or nil.
func (r *Recorder) Lookup(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// Len reports how many traces are retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}
