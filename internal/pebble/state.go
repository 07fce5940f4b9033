package pebble

import (
	"errors"
	"fmt"

	"rbpebble/internal/bitset"
	"rbpebble/internal/dag"
)

// MoveKind enumerates the four pebbling operations.
type MoveKind int

const (
	// Load replaces a blue pebble with a red one (Step 1).
	Load MoveKind = iota
	// Store replaces a red pebble with a blue one (Step 2).
	Store
	// Compute places a red pebble on a node whose inputs are all red
	// (Step 3). Sources are always computable.
	Compute
	// Delete removes the pebble from a node (Step 4).
	Delete
)

// String names the move kind.
func (k MoveKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Compute:
		return "compute"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("MoveKind(%d)", int(k))
	}
}

// Move is a single pebbling operation applied to one node.
type Move struct {
	Kind MoveKind
	Node dag.NodeID
}

// String renders the move like "compute(7)".
func (m Move) String() string { return fmt.Sprintf("%s(%d)", m.Kind, m.Node) }

// Convention selects the initial/final-state convention (paper Appendix C).
// The zero value is the paper's own definition: sources are freely
// computable and sinks may finish with a pebble of either color.
type Convention struct {
	// SourcesStartBlue places an initial blue pebble on every source and
	// forbids computing sources (the Hong-Kung style initialization).
	SourcesStartBlue bool
	// SinksMustBeBlue requires every sink to hold a *blue* pebble for the
	// pebbling to count as complete.
	SinksMustBeBlue bool
}

// Common engine errors. Apply wraps these with node context.
var (
	ErrRedLimit       = errors.New("pebble: red pebble limit reached")
	ErrNotBlue        = errors.New("pebble: node does not hold a blue pebble")
	ErrNotRed         = errors.New("pebble: node does not hold a red pebble")
	ErrNoPebble       = errors.New("pebble: node holds no pebble")
	ErrAlreadyRed     = errors.New("pebble: node already holds a red pebble")
	ErrInputsNotRed   = errors.New("pebble: not all inputs hold red pebbles")
	ErrRecompute      = errors.New("pebble: node already computed (oneshot)")
	ErrDeleteBanned   = errors.New("pebble: delete not available (nodel)")
	ErrSourceCompute  = errors.New("pebble: sources are not computable under SourcesStartBlue")
	ErrNodeOutOfRange = errors.New("pebble: node out of range")
	ErrInfeasibleR    = errors.New("pebble: R < Δ+1, no pebbling exists")
	ErrInvalidR       = errors.New("pebble: R must be positive")
)

// State is a live pebbling position: which nodes hold red or blue pebbles,
// which have been computed (for oneshot), the running cost and step count.
// Create with NewState, advance with Apply.
type State struct {
	g     *dag.DAG
	model Model
	conv  Convention
	r     int

	red      *bitset.Set
	blue     *bitset.Set
	computed *bitset.Set // nodes ever computed (tracked in every model; enforced in oneshot)
	redCount int
	cost     Cost
	steps    int

	sinks []dag.NodeID // cached g.Sinks(), shared across Clones: Complete is solver-hot
}

// ValidateInstance reports whether g can be pebbled with R red pebbles
// under model at all: the model parameters must be valid and R must be
// at least Δ+1 (at least 1 when the DAG has no edges).
func ValidateInstance(g *dag.DAG, model Model, r int) error {
	if err := model.Validate(); err != nil {
		return err
	}
	if r < 1 {
		return ErrInvalidR
	}
	if d := g.MaxInDegree(); r < d+1 {
		return fmt.Errorf("%w: R=%d, Δ=%d", ErrInfeasibleR, r, d)
	}
	return nil
}

// NewState returns the initial state for pebbling g with R red pebbles
// under the given model and convention. It returns ValidateInstance's
// error for an instance that cannot be pebbled.
func NewState(g *dag.DAG, model Model, r int, conv Convention) (*State, error) {
	if err := ValidateInstance(g, model, r); err != nil {
		return nil, err
	}
	s := &State{
		g:        g,
		model:    model,
		conv:     conv,
		r:        r,
		red:      bitset.New(g.N()),
		blue:     bitset.New(g.N()),
		computed: bitset.New(g.N()),
		sinks:    g.Sinks(),
	}
	if conv.SourcesStartBlue {
		for _, v := range g.Sources() {
			s.blue.Set(int(v))
		}
	}
	return s, nil
}

// Graph returns the DAG being pebbled.
func (s *State) Graph() *dag.DAG { return s.g }

// Model returns the cost model in force.
func (s *State) Model() Model { return s.model }

// R returns the red pebble limit.
func (s *State) R() int { return s.r }

// Convention returns the initial/final-state convention in force.
func (s *State) Convention() Convention { return s.conv }

// Cost returns the accumulated cost so far.
func (s *State) Cost() Cost { return s.cost }

// Steps returns the number of moves applied so far.
func (s *State) Steps() int { return s.steps }

// RedCount returns the number of red pebbles currently on the DAG.
func (s *State) RedCount() int { return s.redCount }

// IsRed reports whether v currently holds a red pebble.
func (s *State) IsRed(v dag.NodeID) bool { return s.red.Get(int(v)) }

// IsBlue reports whether v currently holds a blue pebble.
func (s *State) IsBlue(v dag.NodeID) bool { return s.blue.Get(int(v)) }

// HasPebble reports whether v holds a pebble of either color.
func (s *State) HasPebble(v dag.NodeID) bool { return s.IsRed(v) || s.IsBlue(v) }

// WasComputed reports whether Compute has ever been applied to v.
func (s *State) WasComputed(v dag.NodeID) bool { return s.computed.Get(int(v)) }

// RedSet returns a copy of the current red set.
func (s *State) RedSet() *bitset.Set { return s.red.Clone() }

// BlueSet returns a copy of the current blue set.
func (s *State) BlueSet() *bitset.Set { return s.blue.Clone() }

// Clone returns an independent copy of the state (sharing the immutable
// DAG).
func (s *State) Clone() *State {
	c := *s
	c.red = s.red.Clone()
	c.blue = s.blue.Clone()
	c.computed = s.computed.Clone()
	return &c
}

// Key returns a compact encoding of (red, blue, computed) usable as a map
// key for visited-state deduplication in solvers.
func (s *State) Key() string {
	buf := make([]byte, 0, 3*((s.g.N()+63)/64)*8)
	buf = s.red.AppendKey(buf)
	buf = s.blue.AppendKey(buf)
	buf = s.computed.AppendKey(buf)
	return string(buf)
}

// PackedKey is the packed binary encoding of a pebbling position: the
// red, blue and computed bitset words concatenated, PackedWords() words
// in total. Unlike Key it allocates nothing when appended to a reused
// buffer, and is the representation solvers store in their visited
// tables.
type PackedKey []uint64

// PackedWords returns the length of this state's packed encoding.
func (s *State) PackedWords() int { return 3 * s.red.WordLen() }

// AppendPacked appends the packed encoding of (red, blue, computed) to
// dst and returns the extended slice.
func (s *State) AppendPacked(dst PackedKey) PackedKey {
	dst = s.red.AppendWords(dst)
	dst = s.blue.AppendWords(dst)
	dst = s.computed.AppendWords(dst)
	return dst
}

// RestorePacked overwrites the pebble configuration from a packed key
// previously produced by AppendPacked on a state of the same graph. The
// red count is recomputed; cost and steps are reset to zero (solvers
// that jump between stored positions track path costs externally). It
// panics if k has the wrong length.
func (s *State) RestorePacked(k PackedKey) {
	w := s.red.WordLen()
	if len(k) != 3*w {
		panic("pebble: RestorePacked length mismatch")
	}
	s.red.LoadWords(k[:w])
	s.blue.LoadWords(k[w : 2*w])
	s.computed.LoadWords(k[2*w:])
	s.redCount = s.red.Count()
	s.cost = Cost{}
	s.steps = 0
}

// Undo records what a single Apply changed so that the move can be
// reverted in place by State.Undo. The zero value is not meaningful;
// obtain Undo tokens from ApplyForUndo.
type Undo struct {
	move        Move
	wasBlue     bool // Compute/Delete: the node held a blue pebble before
	wasComputed bool // Compute: the computed bit was already set before
}

// ApplyForUndo executes the move like Apply and returns an Undo token
// that reverts it. It lets search loops explore a candidate move on a
// scratch state without cloning: Apply, inspect, Undo.
func (s *State) ApplyForUndo(m Move) (Undo, error) {
	v := int(m.Node)
	u := Undo{move: m}
	if m.Kind == Compute || m.Kind == Delete {
		// Record before Apply mutates the bits.
		if v >= 0 && v < s.g.N() {
			u.wasBlue = s.blue.Get(v)
			u.wasComputed = s.computed.Get(v)
		}
	}
	if err := s.Apply(m); err != nil {
		return Undo{}, err
	}
	return u, nil
}

// Undo reverts a move previously applied with ApplyForUndo. Tokens must
// be undone in reverse application order (stack discipline); undoing in
// any other order corrupts the state.
func (s *State) Undo(u Undo) {
	v := int(u.move.Node)
	switch u.move.Kind {
	case Load:
		s.red.Clear(v)
		s.redCount--
		s.blue.Set(v)
		s.cost.Transfers--
	case Store:
		s.blue.Clear(v)
		s.red.Set(v)
		s.redCount++
		s.cost.Transfers--
	case Compute:
		s.red.Clear(v)
		s.redCount--
		if u.wasBlue {
			s.blue.Set(v)
		}
		if !u.wasComputed {
			s.computed.Clear(v)
		}
		s.cost.Computes--
	case Delete:
		if u.wasBlue {
			s.blue.Set(v)
		} else {
			s.red.Set(v)
			s.redCount++
		}
	}
	s.steps--
}

// Check reports whether the move m is legal in the current state, without
// applying it. A nil return means Apply(m) would succeed.
func (s *State) Check(m Move) error {
	v := int(m.Node)
	if v < 0 || v >= s.g.N() {
		return fmt.Errorf("%w: %d", ErrNodeOutOfRange, m.Node)
	}
	switch m.Kind {
	case Load:
		if !s.blue.Get(v) {
			return fmt.Errorf("%w: %s", ErrNotBlue, m)
		}
		if s.redCount >= s.r {
			return fmt.Errorf("%w: %s (R=%d)", ErrRedLimit, m, s.r)
		}
		return nil
	case Store:
		if !s.red.Get(v) {
			return fmt.Errorf("%w: %s", ErrNotRed, m)
		}
		return nil
	case Compute:
		if s.conv.SourcesStartBlue && s.g.IsSource(m.Node) {
			return fmt.Errorf("%w: %s", ErrSourceCompute, m)
		}
		if s.model.Kind == Oneshot && s.computed.Get(v) {
			return fmt.Errorf("%w: %s", ErrRecompute, m)
		}
		if s.red.Get(v) {
			return fmt.Errorf("%w: %s", ErrAlreadyRed, m)
		}
		for _, u := range s.g.Preds(m.Node) {
			if !s.red.Get(int(u)) {
				return fmt.Errorf("%w: %s (input %d not red)", ErrInputsNotRed, m, u)
			}
		}
		if s.redCount >= s.r {
			return fmt.Errorf("%w: %s (R=%d)", ErrRedLimit, m, s.r)
		}
		return nil
	case Delete:
		if s.model.Kind == NoDel {
			return fmt.Errorf("%w: %s", ErrDeleteBanned, m)
		}
		if !s.red.Get(v) && !s.blue.Get(v) {
			return fmt.Errorf("%w: %s", ErrNoPebble, m)
		}
		return nil
	default:
		return fmt.Errorf("pebble: unknown move kind %d", int(m.Kind))
	}
}

// CanApply reports whether move m is legal in the current state. It is
// the allocation-free twin of Check for solver hot loops: Check explains
// why a move is illegal (building an error), CanApply only answers.
func (s *State) CanApply(m Move) bool {
	v := int(m.Node)
	if v < 0 || v >= s.g.N() {
		return false
	}
	switch m.Kind {
	case Load:
		return s.blue.Get(v) && s.redCount < s.r
	case Store:
		return s.red.Get(v)
	case Compute:
		if s.conv.SourcesStartBlue && s.g.IsSource(m.Node) {
			return false
		}
		if s.model.Kind == Oneshot && s.computed.Get(v) {
			return false
		}
		if s.red.Get(v) || s.redCount >= s.r {
			return false
		}
		for _, u := range s.g.Preds(m.Node) {
			if !s.red.Get(int(u)) {
				return false
			}
		}
		return true
	case Delete:
		if s.model.Kind == NoDel {
			return false
		}
		return s.red.Get(v) || s.blue.Get(v)
	default:
		return false
	}
}

// Apply executes the move, updating pebbles, cost and step count. It
// returns an error (and leaves the state unchanged) if the move is
// illegal.
func (s *State) Apply(m Move) error {
	if err := s.Check(m); err != nil {
		return err
	}
	v := int(m.Node)
	switch m.Kind {
	case Load:
		s.blue.Clear(v)
		s.red.Set(v)
		s.redCount++
		s.cost.Transfers++
	case Store:
		s.red.Clear(v)
		s.redCount--
		s.blue.Set(v)
		s.cost.Transfers++
	case Compute:
		// A blue pebble on v (if any) is replaced by the red pebble.
		if s.blue.Get(v) {
			s.blue.Clear(v)
		}
		s.red.Set(v)
		s.redCount++
		s.computed.Set(v)
		s.cost.Computes++
	case Delete:
		if s.red.Get(v) {
			s.red.Clear(v)
			s.redCount--
		} else {
			s.blue.Clear(v)
		}
	}
	s.steps++
	return nil
}

// MustApply applies the move and panics on an illegal move. Intended for
// schedule builders whose moves are correct by construction.
func (s *State) MustApply(m Move) {
	if err := s.Apply(m); err != nil {
		panic(err)
	}
}

// Complete reports whether the pebbling goal is reached: every sink holds
// a pebble (a blue one, under SinksMustBeBlue).
func (s *State) Complete() bool {
	for _, v := range s.sinks {
		if s.conv.SinksMustBeBlue {
			if !s.blue.Get(int(v)) {
				return false
			}
		} else if !s.red.Get(int(v)) && !s.blue.Get(int(v)) {
			return false
		}
	}
	return true
}

// String summarizes the state.
func (s *State) String() string {
	return fmt.Sprintf("State(model=%s R=%d red=%s blue=%s cost=%s steps=%d)",
		s.model, s.r, s.red, s.blue, s.cost, s.steps)
}
