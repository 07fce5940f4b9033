package pebble

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rbpebble/internal/dag"
)

// Trace is a recorded pebbling: a move sequence together with the problem
// parameters it was produced for. A Trace is the unit of exchange between
// solvers (which produce them) and the verifier (which replays them).
type Trace struct {
	Model      Model
	R          int
	Convention Convention
	Moves      []Move
}

// Result summarizes a verified pebbling.
type Result struct {
	Cost     Cost
	Steps    int
	Complete bool
	// MaxRed is the peak number of simultaneous red pebbles observed.
	MaxRed int
	// Loads, Stores, Computes, Deletes count the moves by kind.
	Loads, Stores, Computes, Deletes int
}

// Value returns the result's cost value under model m.
func (r Result) Value(m Model) float64 { return r.Cost.Value(m) }

// Run replays the trace on g, validating every move, and returns the
// verified result. It fails on the first illegal move or if the final
// state does not complete the pebbling.
func (t *Trace) Run(g *dag.DAG) (Result, error) {
	st, err := NewState(g, t.Model, t.R, t.Convention)
	if err != nil {
		return Result{}, err
	}
	var res Result
	for i, m := range t.Moves {
		if err := st.Apply(m); err != nil {
			return Result{}, fmt.Errorf("move %d: %w", i, err)
		}
		switch m.Kind {
		case Load:
			res.Loads++
		case Store:
			res.Stores++
		case Compute:
			res.Computes++
		case Delete:
			res.Deletes++
		}
		if st.RedCount() > res.MaxRed {
			res.MaxRed = st.RedCount()
		}
	}
	res.Cost = st.Cost()
	res.Steps = st.Steps()
	res.Complete = st.Complete()
	if !res.Complete {
		return res, fmt.Errorf("pebble: trace does not complete the pebbling (some sink unpebbled)")
	}
	return res, nil
}

// Recorder wraps a State and records every applied move, so a solver can
// both simulate and emit a Trace.
type Recorder struct {
	*State
	moves []Move
}

// NewRecorder returns a recording state for the given problem.
func NewRecorder(g *dag.DAG, model Model, r int, conv Convention) (*Recorder, error) {
	st, err := NewState(g, model, r, conv)
	if err != nil {
		return nil, err
	}
	return &Recorder{State: st}, nil
}

// Apply applies and records the move.
func (rec *Recorder) Apply(m Move) error {
	if err := rec.State.Apply(m); err != nil {
		return err
	}
	rec.moves = append(rec.moves, m)
	return nil
}

// MustApply applies and records, panicking on illegal moves.
func (rec *Recorder) MustApply(m Move) {
	if err := rec.Apply(m); err != nil {
		panic(err)
	}
}

// Trace returns the recorded trace.
func (rec *Recorder) Trace() *Trace {
	return &Trace{
		Model:      rec.Model(),
		R:          rec.R(),
		Convention: rec.Convention(),
		Moves:      append([]Move(nil), rec.moves...),
	}
}

// WriteText serializes the trace in a line-oriented format:
//
//	model <name> [epsdenom]
//	r <R>
//	conv <sourcesStartBlue> <sinksMustBeBlue>
//	<move> <node>
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t.Model.Kind == CompCost {
		fmt.Fprintf(bw, "model %s %d\n", t.Model.Kind, t.Model.EpsDenom)
	} else {
		fmt.Fprintf(bw, "model %s\n", t.Model.Kind)
	}
	fmt.Fprintf(bw, "r %d\n", t.R)
	fmt.Fprintf(bw, "conv %t %t\n", t.Convention.SourcesStartBlue, t.Convention.SinksMustBeBlue)
	for _, m := range t.Moves {
		fmt.Fprintf(bw, "%s %d\n", m.Kind, m.Node)
	}
	return bw.Flush()
}

// ReadTrace parses the format written by WriteText.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	t := &Trace{R: -1}
	sawModel := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "model":
			if len(fields) < 2 {
				return nil, fmt.Errorf("pebble: line %d: model wants a name", lineNo)
			}
			kind, err := ParseModelKind(fields[1])
			if err != nil {
				return nil, fmt.Errorf("pebble: line %d: %w", lineNo, err)
			}
			t.Model = Model{Kind: kind}
			if kind == CompCost {
				if len(fields) != 3 {
					return nil, fmt.Errorf("pebble: line %d: compcost wants epsdenom", lineNo)
				}
				d, err := strconv.Atoi(fields[2])
				if err != nil {
					return nil, fmt.Errorf("pebble: line %d: bad epsdenom %q", lineNo, fields[2])
				}
				t.Model.EpsDenom = d
			}
			sawModel = true
		case "r":
			if len(fields) != 2 {
				return nil, fmt.Errorf("pebble: line %d: r wants 1 arg", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("pebble: line %d: bad r %q", lineNo, fields[1])
			}
			t.R = v
		case "conv":
			if len(fields) != 3 {
				return nil, fmt.Errorf("pebble: line %d: conv wants 2 args", lineNo)
			}
			a, err1 := strconv.ParseBool(fields[1])
			b, err2 := strconv.ParseBool(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("pebble: line %d: bad conv flags", lineNo)
			}
			t.Convention = Convention{SourcesStartBlue: a, SinksMustBeBlue: b}
		case "load", "store", "compute", "delete":
			if len(fields) != 2 {
				return nil, fmt.Errorf("pebble: line %d: move wants a node", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("pebble: line %d: bad node %q", lineNo, fields[1])
			}
			var k MoveKind
			switch fields[0] {
			case "load":
				k = Load
			case "store":
				k = Store
			case "compute":
				k = Compute
			case "delete":
				k = Delete
			}
			t.Moves = append(t.Moves, Move{Kind: k, Node: dag.NodeID(v)})
		default:
			return nil, fmt.Errorf("pebble: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawModel || t.R < 0 {
		return nil, fmt.Errorf("pebble: trace missing model or r header")
	}
	return t, nil
}
