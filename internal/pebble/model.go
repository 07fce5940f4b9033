// Package pebble implements the red-blue pebble game engine: game state,
// the four move kinds, per-model legality rules, and exact cost accounting
// for the four model variants studied by Papp & Wattenhofer (SPAA 2020):
// base, oneshot, nodel and compcost.
//
// A node holds at most one pebble: red (fast memory) or blue (slow memory).
// Moves:
//
//	Load    blue -> red   cost 1   (Step 1, "move to fast memory")
//	Store   red  -> blue  cost 1   (Step 2, "move to slow memory")
//	Compute place red on v if all inputs of v are red; sources always
//	        computable. Cost 0 (ε in compcost). (Step 3)
//	Delete  remove any pebble, cost 0. (Step 4, banned in nodel)
//
// A pebbling is complete when every sink holds a pebble. At most R red
// pebbles may be on the DAG at any time.
package pebble

import "fmt"

// ModelKind enumerates the four red-blue pebbling variants (paper Table 1).
type ModelKind int

const (
	// Base is the baseline model: computes and deletes are free and
	// unrestricted. PSPACE-complete (Demaine & Liu).
	Base ModelKind = iota
	// Oneshot allows Compute at most once per node (red-blue-white
	// pebbling): recomputation is forbidden. NP-complete.
	Oneshot
	// NoDel bans the Delete move entirely; red pebbles can only leave a
	// node by being stored (turned blue). NP-complete.
	NoDel
	// CompCost charges ε = 1/EpsDenom per Compute. NP-complete and, per
	// the paper, the most realistic variant.
	CompCost
)

// String returns the lowercase model name used throughout the paper.
func (k ModelKind) String() string {
	switch k {
	case Base:
		return "base"
	case Oneshot:
		return "oneshot"
	case NoDel:
		return "nodel"
	case CompCost:
		return "compcost"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// AllKinds lists the four model variants in paper order.
func AllKinds() []ModelKind { return []ModelKind{Base, Oneshot, NoDel, CompCost} }

// ParseModelKind is the inverse of ModelKind.String.
func ParseModelKind(name string) (ModelKind, error) {
	for _, k := range AllKinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q", name)
}

// Model is a fully specified cost model. For CompCost, ε is the rational
// 1/EpsDenom, which keeps every cost an exact integer multiple of ε and
// lets solvers compare costs without floating-point error.
type Model struct {
	Kind ModelKind
	// EpsDenom defines ε = 1/EpsDenom for CompCost. Ignored by the other
	// kinds. The paper's realistic value is ≈100 (cache ≈100x faster than
	// a bus access). Must be ≥ 2 so that 0 < ε < 1.
	EpsDenom int
}

// NewModel returns a Model of the given kind with the default ε = 1/100
// for CompCost.
func NewModel(kind ModelKind) Model {
	m := Model{Kind: kind}
	if kind == CompCost {
		m.EpsDenom = 100
	}
	return m
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	switch m.Kind {
	case Base, Oneshot, NoDel:
		return nil
	case CompCost:
		if m.EpsDenom < 2 {
			return fmt.Errorf("pebble: CompCost needs EpsDenom >= 2 (ε = 1/EpsDenom in (0,1)), got %d", m.EpsDenom)
		}
		return nil
	default:
		return fmt.Errorf("pebble: unknown model kind %d", int(m.Kind))
	}
}

// Epsilon returns ε as a float (0 for non-CompCost models).
func (m Model) Epsilon() float64 {
	if m.Kind == CompCost {
		return 1 / float64(m.EpsDenom)
	}
	return 0
}

// String renders the model, including ε for compcost.
func (m Model) String() string {
	if m.Kind == CompCost {
		return fmt.Sprintf("compcost(ε=1/%d)", m.EpsDenom)
	}
	return m.Kind.String()
}

// Cost is an exact pebbling cost: the number of transfer operations plus
// the number of computations (which are charged only under CompCost).
// Costs are totally ordered per model via Scaled.
type Cost struct {
	Transfers int // Load + Store operations
	Computes  int // Compute operations
}

// Add returns c + d componentwise.
func (c Cost) Add(d Cost) Cost {
	return Cost{c.Transfers + d.Transfers, c.Computes + d.Computes}
}

// Value returns the cost as a float under model m: Transfers + ε·Computes.
func (c Cost) Value(m Model) float64 {
	return float64(c.Transfers) + m.Epsilon()*float64(c.Computes)
}

// Scaled returns the cost as an exact integer under model m: for CompCost
// it is Transfers·EpsDenom + Computes (i.e. the cost in units of ε); for
// all other models it is simply Transfers. Use Scaled for exact
// comparisons in solvers.
func (c Cost) Scaled(m Model) int64 {
	if m.Kind == CompCost {
		return int64(c.Transfers)*int64(m.EpsDenom) + int64(c.Computes)
	}
	return int64(c.Transfers)
}

// Less reports whether c < d under model m.
func (c Cost) Less(d Cost, m Model) bool { return c.Scaled(m) < d.Scaled(m) }

// String renders the cost pair.
func (c Cost) String() string {
	return fmt.Sprintf("{transfers: %d, computes: %d}", c.Transfers, c.Computes)
}
