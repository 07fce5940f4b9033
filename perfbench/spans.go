package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rbpebble/internal/obs"
)

// tracer keeps the traced run's spans in memory until the run ends. The
// benchmark records its own spans around each call into a layer, and
// grafts the server's span tree of each request (GET /debug/trace/{id})
// under the benchmark's span of that request. A nil *tracer records
// nothing, so untraced code calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one finished span. Times are milliseconds since the run's
// tracer started; Parent 0 marks a root.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	Server  bool    `json:"server,omitempty"`
	Lane    string  `json:"lane,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) float64 { return ms(tm.Sub(t.t0)) }

// add records a span and returns its ID (0 on a nil tracer).
func (t *tracer) add(trace, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Trace: trace, Name: name, StartMS: t.at(start), EndMS: t.at(end)})
	return id
}

// end sets the end of a span added before its end was known.
func (t *tracer) end(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndMS = t.at(end)
}

// timed runs f inside a span and returns how long it took.
func (t *tracer) timed(trace, name string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(trace, name, parent, start, end)
	return end.Sub(start)
}

// graft adds a server span tree under the benchmark span parent, renaming
// each span to its stage name.
func (t *tracer) graft(view obs.TraceView, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make(map[uint64]int, len(view.Spans))
	for i, sv := range view.Spans {
		ids[sv.ID] = len(t.spans) + 1 + i
	}
	for _, sv := range view.Spans {
		p, ok := ids[sv.Parent]
		if !ok {
			p = parent
		}
		t.spans = append(t.spans, spanRec{
			ID:      ids[sv.ID],
			Parent:  p,
			Trace:   view.TraceID,
			Name:    stageName(sv.Name),
			Server:  true,
			Lane:    sv.Attrs["lane"],
			StartMS: t.at(sv.Start),
			EndMS:   t.at(sv.Start) + sv.DurationMS,
		})
	}
}

// stageName normalizes a server span name to [A-Za-z0-9_.-]:
// "engine:ida*" becomes "engine-ida".
func stageName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r == ':':
			return '-'
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		}
		return -1
	}, s)
}

// selfTimes returns, indexed like the spans, each span's duration minus
// the part of its interval that its children cover.
func (t *tracer) selfTimes() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		var iv [][2]float64
		for _, c := range children[s.ID] {
			lo, hi := max(t.spans[c].StartMS, s.StartMS), min(t.spans[c].EndMS, s.EndMS)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		self[i] = s.EndMS - s.StartMS - covered(iv)
	}
	return self
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi float64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

// write stores every span, with its self time, as JSON at path.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	for i := range spans {
		spans[i].SelfMS = self[i]
	}
	data, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// summary prints total self time per span name, largest first.
func (t *tracer) summary(w io.Writer) {
	self := t.selfTimes()
	type agg struct {
		name  string
		ms    float64
		count int
	}
	byName := make(map[string]*agg)
	t.mu.Lock()
	for i, s := range t.spans {
		name := s.Name
		if s.Server {
			name = "server." + name
		}
		a := byName[name]
		if a == nil {
			a = &agg{name: name}
			byName[name] = a
		}
		a.ms += self[i]
		a.count++
	}
	t.mu.Unlock()
	rows := make([]*agg, 0, len(byName))
	for _, a := range byName {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	fmt.Fprintf(w, "# self time by span (total ms, spans):\n")
	for _, a := range rows {
		fmt.Fprintf(w, "#   %-36s %12.3f %7d\n", a.name, a.ms, a.count)
	}
}
