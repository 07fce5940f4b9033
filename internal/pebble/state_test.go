package pebble

import (
	"errors"
	"testing"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
)

// diamond builds 0->2, 1->2, 2->3: two sources, one interior, one sink.
func diamond() *dag.DAG {
	g := dag.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	return g
}

func newState(t *testing.T, g *dag.DAG, kind ModelKind, r int) *State {
	t.Helper()
	st, err := NewState(g, NewModel(kind), r, Convention{})
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	return st
}

func TestNewStateValidation(t *testing.T) {
	g := diamond()
	if _, err := NewState(g, NewModel(Base), 0, Convention{}); !errors.Is(err, ErrInvalidR) {
		t.Fatalf("R=0 error = %v", err)
	}
	if _, err := NewState(g, NewModel(Base), 2, Convention{}); !errors.Is(err, ErrInfeasibleR) {
		t.Fatalf("R=2 < Δ+1=3 error = %v", err)
	}
	if _, err := NewState(g, Model{Kind: CompCost, EpsDenom: 1}, 3, Convention{}); err == nil {
		t.Fatal("EpsDenom=1 accepted")
	}
	if _, err := NewState(g, Model{Kind: ModelKind(99)}, 3, Convention{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := NewState(g, NewModel(Base), 3, Convention{}); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
}

// TestParseModelKindRoundTrip: every kind parses back from its String
// form, and an unknown name is rejected.
func TestParseModelKindRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseModelKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseModelKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseModelKind("warp-drive"); err == nil {
		t.Fatal("unknown model name accepted")
	}
}

func TestComputeSourceAlwaysAllowed(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	if err := st.Apply(Move{Compute, 0}); err != nil {
		t.Fatalf("compute source: %v", err)
	}
	if !st.IsRed(0) || st.RedCount() != 1 {
		t.Fatal("source not red after compute")
	}
	if got := st.Cost(); got.Transfers != 0 || got.Computes != 1 {
		t.Fatalf("cost after compute = %v", got)
	}
}

func TestComputeRequiresRedInputs(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	err := st.Apply(Move{Compute, 2})
	if !errors.Is(err, ErrInputsNotRed) {
		t.Fatalf("compute without inputs: %v", err)
	}
	st.MustApply(Move{Compute, 0})
	err = st.Apply(Move{Compute, 2})
	if !errors.Is(err, ErrInputsNotRed) {
		t.Fatalf("compute with one input: %v", err)
	}
	st.MustApply(Move{Compute, 1})
	if err := st.Apply(Move{Compute, 2}); err != nil {
		t.Fatalf("compute with all inputs red: %v", err)
	}
}

func TestRedLimitEnforced(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Compute, 1})
	st.MustApply(Move{Compute, 2})
	// All 3 red pebbles used; computing sink must fail.
	if err := st.Apply(Move{Compute, 3}); !errors.Is(err, ErrRedLimit) {
		t.Fatalf("over-limit compute: %v", err)
	}
	// Free a pebble by deleting a source; sink computable now.
	st.MustApply(Move{Delete, 0})
	if err := st.Apply(Move{Compute, 3}); err != nil {
		t.Fatalf("compute after delete: %v", err)
	}
	if st.RedCount() != 3 {
		t.Fatalf("redCount = %d", st.RedCount())
	}
}

func TestLoadStoreCycle(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	// Load without blue pebble fails.
	if err := st.Apply(Move{Load, 0}); !errors.Is(err, ErrNotBlue) {
		t.Fatalf("load no-blue: %v", err)
	}
	// Store without red fails.
	if err := st.Apply(Move{Store, 0}); !errors.Is(err, ErrNotRed) {
		t.Fatalf("store no-red: %v", err)
	}
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Store, 0})
	if !st.IsBlue(0) || st.IsRed(0) || st.RedCount() != 0 {
		t.Fatal("store did not swap red->blue")
	}
	st.MustApply(Move{Load, 0})
	if !st.IsRed(0) || st.IsBlue(0) || st.RedCount() != 1 {
		t.Fatal("load did not swap blue->red")
	}
	if c := st.Cost(); c.Transfers != 2 {
		t.Fatalf("transfers = %d, want 2", c.Transfers)
	}
}

func TestLoadRespectsRedLimit(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Compute, 1})
	st.MustApply(Move{Compute, 2})
	st.MustApply(Move{Store, 0})   // red={1,2}, blue={0}
	st.MustApply(Move{Compute, 3}) // input 2 is red; red={1,2,3} at limit
	if err := st.Apply(Move{Load, 0}); !errors.Is(err, ErrRedLimit) {
		t.Fatalf("load at red limit: %v", err)
	}
	st.MustApply(Move{Delete, 1})
	if err := st.Apply(Move{Load, 0}); err != nil {
		t.Fatalf("load after freeing a pebble: %v", err)
	}
}

func TestComputeReplacesBluePebble(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Store, 0})
	if !st.IsBlue(0) {
		t.Fatal("setup failed")
	}
	// Recompute node 0 (a source): the blue pebble must be replaced, not
	// duplicated.
	st.MustApply(Move{Compute, 0})
	if st.IsBlue(0) || !st.IsRed(0) {
		t.Fatal("compute did not replace blue pebble")
	}
}

func TestComputeAlreadyRedIsIllegal(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	st.MustApply(Move{Compute, 0})
	if err := st.Apply(Move{Compute, 0}); !errors.Is(err, ErrAlreadyRed) {
		t.Fatalf("recompute red node: %v", err)
	}
}

func TestOneshotForbidsRecompute(t *testing.T) {
	st := newState(t, diamond(), Oneshot, 3)
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Delete, 0})
	if err := st.Apply(Move{Compute, 0}); !errors.Is(err, ErrRecompute) {
		t.Fatalf("oneshot recompute: %v", err)
	}
	// But loading a stored copy is fine.
	st.MustApply(Move{Compute, 1})
	st.MustApply(Move{Store, 1})
	st.MustApply(Move{Load, 1})
	if !st.IsRed(1) {
		t.Fatal("load failed in oneshot")
	}
}

func TestBaseAllowsRecompute(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Delete, 0})
	if err := st.Apply(Move{Compute, 0}); err != nil {
		t.Fatalf("base recompute: %v", err)
	}
}

func TestNoDelBansDelete(t *testing.T) {
	st := newState(t, diamond(), NoDel, 3)
	st.MustApply(Move{Compute, 0})
	if err := st.Apply(Move{Delete, 0}); !errors.Is(err, ErrDeleteBanned) {
		t.Fatalf("nodel delete: %v", err)
	}
	// Store is the only way to free a red pebble.
	st.MustApply(Move{Store, 0})
	if st.RedCount() != 0 {
		t.Fatal("store did not free pebble")
	}
}

func TestNoDelAllowsRecomputeOverBlue(t *testing.T) {
	// Paper §4: "Step 3 still allows us to replace a blue pebble by a red
	// one if all inputs contain a red pebble."
	st := newState(t, diamond(), NoDel, 3)
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Store, 0})
	st.MustApply(Move{Compute, 0})
	if !st.IsRed(0) || st.IsBlue(0) {
		t.Fatal("nodel recompute over blue failed")
	}
}

func TestDeleteRequiresPebble(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	if err := st.Apply(Move{Delete, 0}); !errors.Is(err, ErrNoPebble) {
		t.Fatalf("delete empty: %v", err)
	}
	// Delete works on blue pebbles too.
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Store, 0})
	st.MustApply(Move{Delete, 0})
	if st.HasPebble(0) {
		t.Fatal("delete left a pebble")
	}
}

func TestCompCostCharges(t *testing.T) {
	m := Model{Kind: CompCost, EpsDenom: 100}
	st, err := NewState(diamond(), m, 3, Convention{})
	if err != nil {
		t.Fatal(err)
	}
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Compute, 1})
	st.MustApply(Move{Compute, 2})
	st.MustApply(Move{Store, 0})
	c := st.Cost()
	if c.Computes != 3 || c.Transfers != 1 {
		t.Fatalf("cost = %v", c)
	}
	if got := c.Value(m); got != 1+3*0.01 {
		t.Fatalf("Value = %v", got)
	}
	if got := c.Scaled(m); got != 103 {
		t.Fatalf("Scaled = %v", got)
	}
	// Non-compcost models do not charge computes.
	base := NewModel(Base)
	if c.Value(base) != 1 || c.Scaled(base) != 1 {
		t.Fatal("base model charged computes")
	}
}

func TestCostOrdering(t *testing.T) {
	m := Model{Kind: CompCost, EpsDenom: 10}
	a := Cost{Transfers: 1, Computes: 0}
	b := Cost{Transfers: 0, Computes: 9}
	if !b.Less(a, m) {
		t.Fatal("9ε should be < 1 for ε=1/10")
	}
	c := Cost{Transfers: 0, Computes: 10}
	if c.Less(a, m) || a.Less(c, m) {
		t.Fatal("10ε should equal 1")
	}
	if a.Add(b) != (Cost{Transfers: 1, Computes: 9}) {
		t.Fatal("Add wrong")
	}
}

func TestNodeOutOfRange(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	if err := st.Apply(Move{Compute, 99}); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := st.Apply(Move{Compute, -1}); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("negative: %v", err)
	}
}

func TestApplyLeavesStateUnchangedOnError(t *testing.T) {
	st := newState(t, diamond(), Base, 3)
	st.MustApply(Move{Compute, 0})
	before := st.Key()
	costBefore := st.Cost()
	if err := st.Apply(Move{Compute, 2}); err == nil {
		t.Fatal("expected error")
	}
	if st.Key() != before || st.Cost() != costBefore || st.Steps() != 1 {
		t.Fatal("failed Apply mutated state")
	}
}

func TestComplete(t *testing.T) {
	g := diamond()
	st := newState(t, g, Base, 3)
	if st.Complete() {
		t.Fatal("empty state complete")
	}
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Compute, 1})
	st.MustApply(Move{Compute, 2})
	st.MustApply(Move{Delete, 0})
	st.MustApply(Move{Compute, 3})
	if !st.Complete() {
		t.Fatal("sink red but not complete")
	}
	// Blue on the sink also completes.
	st.MustApply(Move{Store, 3})
	if !st.Complete() {
		t.Fatal("sink blue but not complete")
	}
	st.MustApply(Move{Delete, 3})
	if st.Complete() {
		t.Fatal("deleted sink still complete")
	}
}

func TestConventionSinksMustBeBlue(t *testing.T) {
	st, err := NewState(diamond(), NewModel(Base), 3, Convention{SinksMustBeBlue: true})
	if err != nil {
		t.Fatal(err)
	}
	st.MustApply(Move{Compute, 0})
	st.MustApply(Move{Compute, 1})
	st.MustApply(Move{Compute, 2})
	st.MustApply(Move{Delete, 0})
	st.MustApply(Move{Compute, 3})
	if st.Complete() {
		t.Fatal("red sink counted complete under SinksMustBeBlue")
	}
	st.MustApply(Move{Store, 3})
	if !st.Complete() {
		t.Fatal("blue sink not complete")
	}
}

func TestConventionSourcesStartBlue(t *testing.T) {
	st, err := NewState(diamond(), NewModel(Base), 3, Convention{SourcesStartBlue: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsBlue(0) || !st.IsBlue(1) {
		t.Fatal("sources not blue initially")
	}
	if err := st.Apply(Move{Compute, 0}); !errors.Is(err, ErrSourceCompute) {
		t.Fatalf("compute source under SourcesStartBlue: %v", err)
	}
	st.MustApply(Move{Load, 0})
	st.MustApply(Move{Load, 1})
	st.MustApply(Move{Compute, 2})
	if st.Cost().Transfers != 2 {
		t.Fatalf("transfers = %d", st.Cost().Transfers)
	}
}

func TestCloneIndependence(t *testing.T) {
	st := newState(t, diamond(), Oneshot, 3)
	st.MustApply(Move{Compute, 0})
	c := st.Clone()
	c.MustApply(Move{Compute, 1})
	if st.IsRed(1) {
		t.Fatal("clone mutation leaked")
	}
	if st.Key() == c.Key() {
		t.Fatal("diverged states share key")
	}
	if c.Steps() != 2 || st.Steps() != 1 {
		t.Fatal("step counts wrong after clone")
	}
}

func TestKeyTracksComputedSet(t *testing.T) {
	// Two states with equal pebbles but different computed sets must have
	// different keys (matters for oneshot solvers).
	a := newState(t, diamond(), Oneshot, 3)
	b := newState(t, diamond(), Oneshot, 3)
	a.MustApply(Move{Compute, 0})
	a.MustApply(Move{Delete, 0})
	if a.Key() == b.Key() {
		t.Fatal("computed set not part of key")
	}
}

func TestMinFeasibleR(t *testing.T) {
	if r := MinFeasibleR(diamond()); r != 3 {
		t.Fatalf("MinFeasibleR(diamond) = %d", r)
	}
	if r := MinFeasibleR(dag.New(5)); r != 1 {
		t.Fatalf("MinFeasibleR(edgeless) = %d", r)
	}
	if r := MinFeasibleR(daggen.Pyramid(4)); r != 3 {
		t.Fatalf("MinFeasibleR(pyramid) = %d", r)
	}
}

func TestCostUpperBound(t *testing.T) {
	g := diamond()
	ub := CostUpperBound(g, NewModel(Base))
	if ub.Transfers != (2*2+1)*4 {
		t.Fatalf("upper bound = %v", ub)
	}
}

func TestStepUpperBoundFactor(t *testing.T) {
	if StepUpperBoundFactor(NewModel(Base)) != 0 {
		t.Fatal("base should be unbounded")
	}
	if StepUpperBoundFactor(NewModel(Oneshot)) <= 0 {
		t.Fatal("oneshot should be bounded")
	}
	if f := StepUpperBoundFactor(Model{Kind: CompCost, EpsDenom: 100}); f <= 0 {
		t.Fatal("compcost should be bounded")
	}
}

func TestModelStrings(t *testing.T) {
	for _, k := range AllKinds() {
		if k.String() == "" {
			t.Fatal("empty model name")
		}
	}
	m := Model{Kind: CompCost, EpsDenom: 50}
	if m.String() != "compcost(ε=1/50)" {
		t.Fatalf("String = %q", m.String())
	}
	if NewModel(Oneshot).String() != "oneshot" {
		t.Fatal("oneshot String wrong")
	}
	if MoveKind(42).String() == "" || ModelKind(42).String() == "" {
		t.Fatal("unknown kinds should still render")
	}
}

func TestPackedRoundTrip(t *testing.T) {
	g := diamond()
	st, err := NewState(g, NewModel(Oneshot), 3, Convention{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Move{
		{Kind: Compute, Node: 0},
		{Kind: Compute, Node: 1},
		{Kind: Store, Node: 0},
	} {
		st.MustApply(m)
	}
	key := st.AppendPacked(nil)
	if len(key) != st.PackedWords() {
		t.Fatalf("key len %d != PackedWords %d", len(key), st.PackedWords())
	}
	fresh, err := NewState(g, NewModel(Oneshot), 3, Convention{})
	if err != nil {
		t.Fatal(err)
	}
	fresh.RestorePacked(key)
	for v := 0; v < g.N(); v++ {
		n := dag.NodeID(v)
		if fresh.IsRed(n) != st.IsRed(n) || fresh.IsBlue(n) != st.IsBlue(n) ||
			fresh.WasComputed(n) != st.WasComputed(n) {
			t.Fatalf("node %d differs after RestorePacked", v)
		}
	}
	if fresh.RedCount() != st.RedCount() {
		t.Fatalf("RedCount %d != %d", fresh.RedCount(), st.RedCount())
	}
}

func TestApplyForUndoRoundTrip(t *testing.T) {
	g := diamond()
	for _, kind := range []ModelKind{Base, Oneshot, NoDel, CompCost} {
		st, err := NewState(g, NewModel(kind), 3, Convention{})
		if err != nil {
			t.Fatal(err)
		}
		// Drive into a mid-game position.
		st.MustApply(Move{Kind: Compute, Node: 0})
		st.MustApply(Move{Kind: Compute, Node: 1})
		st.MustApply(Move{Kind: Store, Node: 1})
		before := st.AppendPacked(nil)
		beforeCost, beforeSteps, beforeRed := st.Cost(), st.Steps(), st.RedCount()
		// Apply and undo every currently legal move; the state must be
		// byte-identical afterwards.
		for v := 0; v < g.N(); v++ {
			for _, mk := range []MoveKind{Load, Store, Compute, Delete} {
				m := Move{Kind: mk, Node: dag.NodeID(v)}
				if !st.CanApply(m) {
					if st.Check(m) == nil {
						t.Fatalf("%v %v: CanApply false but Check nil", kind, m)
					}
					continue
				}
				if st.Check(m) != nil {
					t.Fatalf("%v %v: CanApply true but Check errors", kind, m)
				}
				u, err := st.ApplyForUndo(m)
				if err != nil {
					t.Fatalf("%v %v: %v", kind, m, err)
				}
				st.Undo(u)
				after := st.AppendPacked(nil)
				for i := range before {
					if before[i] != after[i] {
						t.Fatalf("%v %v: packed state differs after undo", kind, m)
					}
				}
				if st.Cost() != beforeCost || st.Steps() != beforeSteps || st.RedCount() != beforeRed {
					t.Fatalf("%v %v: cost/steps/red differ after undo", kind, m)
				}
			}
		}
	}
}
