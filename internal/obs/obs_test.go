package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rbpebble/internal/dag"
)

// TestSpanTree: nested StartSpan calls parent correctly and the view
// reflects names, the parent chain, and closed durations.
func TestSpanTree(t *testing.T) {
	tr := newTrace("trace-tree-1")
	ctx := WithTrace(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "root")
	ctx2, child := StartSpan(ctx1, "child")
	_, grand := StartSpan(ctx2, "grandchild")
	_, sibling := StartSpan(ctx1, "sibling")

	grand.SetAttr("k", "v")
	grand.Event("tick", 42)
	time.Sleep(time.Millisecond)
	grand.End()
	child.End()
	sibling.End()
	root.End()

	v := tr.View()
	if v.TraceID != "trace-tree-1" {
		t.Fatalf("trace id = %q", v.TraceID)
	}
	byName := map[string]SpanView{}
	for _, sv := range v.Spans {
		byName[sv.Name] = sv
	}
	if len(byName) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(byName), v.Spans)
	}
	if byName["root"].Parent != 0 {
		t.Fatalf("root has parent %d", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Fatalf("child parent = %d, want root %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Fatalf("grandchild parent = %d, want child %d", byName["grandchild"].Parent, byName["child"].ID)
	}
	if byName["sibling"].Parent != byName["root"].ID {
		t.Fatalf("sibling parent = %d, want root %d", byName["sibling"].Parent, byName["root"].ID)
	}
	g := byName["grandchild"]
	if g.Open {
		t.Fatal("grandchild still open after End")
	}
	if g.DurationMS <= 0 {
		t.Fatalf("grandchild duration %v, want > 0", g.DurationMS)
	}
	if g.Attrs["k"] != "v" {
		t.Fatalf("grandchild attrs = %v", g.Attrs)
	}
	if len(g.Events) != 1 || g.Events[0].Name != "tick" || g.Events[0].Value != 42 {
		t.Fatalf("grandchild events = %v", g.Events)
	}
}

// TestUntracedContextIsFree: without a trace in context, StartSpan
// returns a nil span and every method on it is a no-op.
func TestUntracedContextIsFree(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatalf("got span %+v without a trace", sp)
	}
	if ctx != context.Background() {
		t.Fatal("untraced StartSpan should return ctx unchanged")
	}
	// All nil-safe: must not panic.
	sp.SetAttr("a", "b")
	sp.Event("e", 1)
	sp.End()
	sp.End()
}

// TestEndIdempotent: the first End fixes the duration; later Ends are
// no-ops.
func TestEndIdempotent(t *testing.T) {
	tr := newTrace("trace-end")
	ctx := WithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "once")
	sp.End()
	end := sp.EndTime
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if !sp.EndTime.Equal(end) {
		t.Fatalf("second End moved EndTime: %v -> %v", end, sp.EndTime)
	}
}

// TestGraft: spans started from a grafted context land in the original
// trace, parented under the span current at graft time, while
// cancellation follows the base context.
func TestGraft(t *testing.T) {
	tr := newTrace("trace-graft")
	reqCtx, parent := StartSpan(WithTrace(context.Background(), tr), "request")

	base, cancel := context.WithCancel(context.Background())
	g := Graft(base, reqCtx)
	if TraceIDFrom(g) != "trace-graft" {
		t.Fatalf("grafted trace id = %q", TraceIDFrom(g))
	}
	_, sp := StartSpan(g, "work")
	if sp.Parent != parent.ID {
		t.Fatalf("grafted span parent = %d, want %d", sp.Parent, parent.ID)
	}
	cancel()
	if g.Err() == nil {
		t.Fatal("grafted context must inherit base cancellation")
	}
	if reqCtx.Err() != nil {
		t.Fatal("request context must not be canceled by base")
	}
	// Graft with no trace is the identity.
	if got := Graft(base, context.Background()); got != base {
		t.Fatal("graft from untraced context should return base")
	}
}

// TestStartRequest: minting, inbound adoption, validation, and the
// immediate response echo.
func TestStartRequest(t *testing.T) {
	rec := NewRecorder(4)

	// No inbound header: mint and echo.
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/solve", nil)
	ctx, tr := StartRequest(w, r, rec)
	if tr.ID == "" || w.Header().Get(TraceHeader) != tr.ID {
		t.Fatalf("minted id %q, echoed %q", tr.ID, w.Header().Get(TraceHeader))
	}
	if TraceIDFrom(ctx) != tr.ID {
		t.Fatal("context does not carry the trace")
	}
	if rec.Lookup(tr.ID) != tr {
		t.Fatal("trace not registered")
	}

	// Well-formed inbound header: adopted verbatim.
	w = httptest.NewRecorder()
	r = httptest.NewRequest("POST", "/solve", nil)
	r.Header.Set(TraceHeader, "client-supplied-id_01")
	_, tr = StartRequest(w, r, nil)
	if tr.ID != "client-supplied-id_01" {
		t.Fatalf("inbound id not adopted: %q", tr.ID)
	}

	// Hostile/malformed inbound headers: replaced with a fresh mint.
	for _, bad := range []string{"short", strings.Repeat("x", 65), "has space", "naïve-id", "inject\nheader"} {
		w = httptest.NewRecorder()
		r = httptest.NewRequest("POST", "/solve", nil)
		r.Header.Set(TraceHeader, bad)
		_, tr = StartRequest(w, r, nil)
		if tr.ID == bad {
			t.Fatalf("malformed id %q adopted", bad)
		}
	}
}

// TestRecorderEviction: capacity bounds retention FIFO; duplicate IDs
// re-register in place without burning a slot.
func TestRecorderEviction(t *testing.T) {
	rec := NewRecorder(3)
	for i := 0; i < 5; i++ {
		rec.Register(newTrace(fmt.Sprintf("trace-%d", i)))
	}
	if rec.Len() != 3 {
		t.Fatalf("len = %d, want 3", rec.Len())
	}
	for i := 0; i < 2; i++ {
		if rec.Lookup(fmt.Sprintf("trace-%d", i)) != nil {
			t.Fatalf("trace-%d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if rec.Lookup(fmt.Sprintf("trace-%d", i)) == nil {
			t.Fatalf("trace-%d missing", i)
		}
	}
	// Duplicate ID: newest trace wins, slot count unchanged.
	dup := newTrace("trace-4")
	rec.Register(dup)
	if rec.Len() != 3 {
		t.Fatalf("duplicate registration changed len to %d", rec.Len())
	}
	if rec.Lookup("trace-4") != dup {
		t.Fatal("duplicate registration did not replace the trace")
	}
}

// TestSolveLogRing: wraparound retention, newest-first Recent, total
// count, and the solve rows mirrored to the event log.
func TestSolveLogRing(t *testing.T) {
	var sink bytes.Buffer
	l := NewSolveLog(3, NewEventLog(&sink))
	for i := 0; i < 5; i++ {
		l.Append(SolveRecord{TraceID: fmt.Sprintf("t%d", i), Disposition: "cold"})
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
	recs := l.Recent(0)
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	for i, want := range []string{"t4", "t3", "t2"} {
		if recs[i].TraceID != want {
			t.Fatalf("recent[%d] = %s, want %s (newest first)", i, recs[i].TraceID, want)
		}
	}
	if recs := l.Recent(1); len(recs) != 1 || recs[0].TraceID != "t4" {
		t.Fatalf("recent(1) = %+v", recs)
	}
	if recs := l.Recent(100); len(recs) != 3 {
		t.Fatalf("recent(100) returned %d records", len(recs))
	}
	// Sink got one solve row per append, in append order, carrying the
	// whole record.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("sink has %d lines, want 5", len(lines))
	}
	for i, line := range lines {
		var row EventRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("sink line %d not JSON: %v", i, err)
		}
		want := fmt.Sprintf("t%d", i)
		if row.Kind != "solve" || row.TraceID != want || row.Time.IsZero() || row.Snapshot != nil {
			t.Fatalf("sink line %d = %s, want a timestamped solve row for %s", i, line, want)
		}
		if row.Solve == nil || row.Solve.TraceID != want || row.Solve.Disposition != "cold" {
			t.Fatalf("sink line %d record = %+v", i, row.Solve)
		}
	}
}

// TestComputeFeatures on a hand-built cherry DAG (0->2, 1->2) with
// every expected field checked exactly.
func TestComputeFeatures(t *testing.T) {
	g := dag.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	f := ComputeFeatures(g, 3)
	if f.N != 3 || f.M != 2 {
		t.Fatalf("size = %d/%d", f.N, f.M)
	}
	if f.Delta != 2 || f.R != 3 || f.RDeltaGap != 1 {
		t.Fatalf("delta/r/gap = %d/%d/%d", f.Delta, f.R, f.RDeltaGap)
	}
	if f.Depth != 2 {
		t.Fatalf("depth = %d, want 2", f.Depth)
	}
	if f.MaxWidth != 2 {
		t.Fatalf("max width = %d, want 2", f.MaxWidth)
	}
	if f.AvgWidth != 1.5 {
		t.Fatalf("avg width = %v, want 1.5", f.AvgWidth)
	}
	if f.FullEventDensity != 1.0/3.0 {
		t.Fatalf("full-event density = %v, want 1/3", f.FullEventDensity)
	}
}

// TestConcurrentSpans hammers one trace from many goroutines while a
// reader snapshots views — the race detector is the assertion.
func TestConcurrentSpans(t *testing.T) {
	tr := newTrace("trace-race")
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.View()
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sctx, sp := StartSpan(ctx, fmt.Sprintf("w%d", i))
				_, inner := StartSpan(sctx, "inner")
				sp.SetAttr("iter", fmt.Sprint(j))
				inner.Event("tick", int64(j))
				inner.End()
				sp.End()
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := len(tr.View().Spans); got != 8*50*2 {
		t.Fatalf("recorded %d spans, want %d", got, 8*50*2)
	}
}

// TestSolveLogConcurrent: concurrent appends and reads stay consistent
// (race detector plus total/retention checks).
func TestSolveLogConcurrent(t *testing.T) {
	l := NewSolveLog(16, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				l.Append(SolveRecord{TraceID: fmt.Sprintf("g%d-%d", i, j)})
				l.Recent(4)
			}
		}(i)
	}
	wg.Wait()
	if l.Total() != 200 {
		t.Fatalf("total = %d, want 200", l.Total())
	}
	if got := len(l.Recent(0)); got != 16 {
		t.Fatalf("retained %d, want 16", got)
	}
}
