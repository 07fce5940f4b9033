// Package rbpebble is a library for red-blue pebble games — the model of
// I/O complexity on a two-level memory hierarchy — implementing the four
// model variants, constructions, reductions and algorithms of Papp &
// Wattenhofer, "On the Hardness of Red-Blue Pebble Games" (SPAA 2020).
//
// The package is a facade: it re-exports the library's stable surface
// from the internal packages so downstream users import a single path.
//
//	g := rbpebble.Pyramid(8)                     // build a workload DAG
//	p := rbpebble.Problem{G: g, Model: rbpebble.NewModel(rbpebble.Oneshot), R: 4}
//	sol, err := rbpebble.TopoBelady(p)           // heuristic pebbling
//	opt, err := rbpebble.Exact(p, rbpebble.ExactOptions{}) // exact optimum
//
// Layers:
//
//   - DAG substrate and workload generators (Pyramid, FFT, MatMul, ...)
//   - the game engine: moves, per-model legality, exact cost accounting
//   - schedulers: compute order + eviction policy → verified pebbling
//   - solvers: exact state-space search, greedy
//   - the paper's gadgets (CD, H2C, tradeoff DAG, greedy grid) and
//     reductions (Hamiltonian Path, Vertex Cover)
//   - the anytime layer: deadline-driven orchestration that runs the
//     heuristics and then one exact A* engine, returning certified
//     [lower, upper] intervals (Anytime, AnytimeOptions)
//   - the serving layer: instance canonicalization + solution cache
//     (CanonicalDAG) and the rbserve HTTP service (NewServer)
//   - the experiment harness regenerating every table and figure
package rbpebble

import (
	"crypto/sha256"

	"rbpebble/internal/anytime"
	"rbpebble/internal/canon"
	"rbpebble/internal/cluster"
	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/experiments"
	"rbpebble/internal/gadgets"
	"rbpebble/internal/hampath"
	"rbpebble/internal/multilevel"
	"rbpebble/internal/parpeb"
	"rbpebble/internal/pebble"
	"rbpebble/internal/reduce"
	"rbpebble/internal/sched"
	"rbpebble/internal/service"
	"rbpebble/internal/solve"
	"rbpebble/internal/ugraph"
	"rbpebble/internal/vcover"
)

// ---- DAG substrate ----

type (
	// DAG is a directed acyclic computation graph.
	DAG = dag.DAG
	// NodeID identifies a node in a DAG.
	NodeID = dag.NodeID
	// Stats summarizes a DAG's structure.
	Stats = dag.Stats
)

// NewDAG returns a DAG with n nodes and no edges.
func NewDAG(n int) *DAG { return dag.New(n) }

// CanonicalDAG computes an isomorphism-invariant digest and canonical
// node permutation (perm[orig] = canonical ID) of a DAG — the identity
// the rbserve instance cache deduplicates on. It runs one labeling
// search and builds no automorphism group.
func CanonicalDAG(g *DAG) ([sha256.Size]byte, []NodeID) {
	l := canon.Search(g)
	return l.Digest, l.Perm
}

// ---- Workload generators ----

var (
	// Chain returns a path DAG of n nodes.
	Chain = daggen.Chain
	// Pyramid returns the classic pebbling pyramid of the given height.
	Pyramid = daggen.Pyramid
	// BinaryTree returns a complete binary in-tree with the given levels.
	BinaryTree = daggen.BinaryTree
	// Grid returns a rows x cols dynamic-programming stencil DAG.
	Grid = daggen.Grid
	// FFT returns the 2^logN-point FFT butterfly DAG.
	FFT = daggen.FFT
	// MatMul returns the k x k matrix-multiplication DAG.
	MatMul = daggen.MatMul
	// Stencil1D returns a 1-D stencil DAG over w cells and t steps.
	Stencil1D = daggen.Stencil1D
	// RandomLayered returns a random layered DAG (seeded).
	RandomLayered = daggen.RandomLayered
	// InputGroups returns the paper's input-group pattern.
	InputGroups = daggen.InputGroups
)

// ---- Game engine ----

type (
	// Model is a red-blue pebbling cost model.
	Model = pebble.Model
	// ModelKind enumerates base, oneshot, nodel, compcost.
	ModelKind = pebble.ModelKind
	// Cost is an exact pebbling cost (transfers + computes).
	Cost = pebble.Cost
	// Move is one pebbling operation.
	Move = pebble.Move
	// MoveKind enumerates Load, Store, Compute, Delete.
	MoveKind = pebble.MoveKind
	// State is a live pebbling position.
	State = pebble.State
	// Trace is a recorded pebbling with its parameters.
	Trace = pebble.Trace
	// Result is a verified pebbling summary.
	Result = pebble.Result
	// Convention selects initial/final-state conventions (Appendix C).
	Convention = pebble.Convention
)

// Model kinds (paper Table 1).
const (
	Base     = pebble.Base
	Oneshot  = pebble.Oneshot
	NoDel    = pebble.NoDel
	CompCost = pebble.CompCost
)

// Move kinds.
const (
	Load    = pebble.Load
	Store   = pebble.Store
	Compute = pebble.Compute
	Delete  = pebble.Delete
)

var (
	// NewModel returns a model of the given kind (ε = 1/100 for compcost).
	NewModel = pebble.NewModel
	// NewState returns the initial pebbling state.
	NewState = pebble.NewState
	// NewRecorder returns a move-recording state.
	NewRecorder = pebble.NewRecorder
	// MinFeasibleR returns Δ+1, the least workable red-pebble count.
	MinFeasibleR = pebble.MinFeasibleR
	// CostUpperBound returns the universal (2Δ+1)·n bound.
	CostUpperBound = pebble.CostUpperBound
	// ReadTrace parses a serialized trace.
	ReadTrace = pebble.ReadTrace
)

// ---- Scheduling ----

type (
	// Policy is a red-pebble eviction policy.
	Policy = sched.Policy
	// SchedOptions configures Execute.
	SchedOptions = sched.Options
)

// Eviction policies.
const (
	Belady        = sched.Belady
	LRU           = sched.LRU
	FIFO          = sched.FIFO
	RandomEvict   = sched.Random
	EvictAllStore = sched.EvictAllStore
)

// Execute turns a compute order plus eviction policy into a verified
// pebbling.
var Execute = sched.Execute

// ---- Solvers ----

type (
	// Problem bundles a pebbling instance.
	Problem = solve.Problem
	// Solution is a solver output with its verified result.
	Solution = solve.Solution
	// ExactOptions configures the exact solver: state budget
	// (MaxStates), table memory budget (MaxTableBytes), the A* lower
	// bound on or off (Heuristic), search counters (Stats),
	// cancellation and progress snapshots, and the ablation switch for
	// the safe reductions, the normal-form move rules and symmetry
	// included (DisablePruning).
	ExactOptions = solve.ExactOptions
	// ExactStats reports search-effort counters from one Exact run
	// (states expanded, open-list pushes, distinct states reached).
	ExactStats = solve.ExactStats
	// Heuristic switches the exact solver's A* lower bound on or off.
	Heuristic = solve.Heuristic
	// ExactDFSStats reports search effort and bound progress from one
	// ExactDFS run (also populated alongside ErrVisitLimit).
	ExactDFSStats = solve.ExactDFSStats
	// PackedKey is the packed []uint64 encoding of a pebbling position
	// (State.AppendPacked/RestorePacked), the representation the exact
	// solvers key their visited tables on.
	PackedKey = pebble.PackedKey
	// ExactDFSOptions configures the depth-first (IDA*) exact solver.
	ExactDFSOptions = solve.ExactDFSOptions
	// RandomOrdersOptions configures the sampling heuristic.
	RandomOrdersOptions = solve.RandomOrdersOptions
	// GreedyRule enumerates the §8 greedy heuristics.
	GreedyRule = solve.GreedyRule
)

// Greedy rules (§8).
const (
	MostRedInputs    = solve.MostRedInputs
	FewestBlueInputs = solve.FewestBlueInputs
	RedRatio         = solve.RedRatio
)

// Exact-solver heuristic modes. HeuristicAuto (the zero value) enables
// the admissible model-aware lower bound, which includes the
// Hong-Kung-style S-partition packing in oneshot; HeuristicOff reverts
// to plain Dijkstra. The proven optimal cost is the same in both.
const (
	HeuristicAuto = solve.HeuristicAuto
	HeuristicOff  = solve.HeuristicOff
)

var (
	// Exact finds a provably optimal pebbling by best-first state-space
	// search: A* under an admissible model-aware lower bound (Dijkstra
	// with HeuristicOff), over packed states in an open-addressing
	// table, storing one state per automorphism orbit of the DAG.
	Exact = solve.Exact
	// Greedy runs a §8 greedy strategy.
	Greedy = solve.Greedy
	// GreedyOrder returns the compute order a greedy rule induces.
	GreedyOrder = solve.GreedyOrder
	// Topological is the naive (2Δ+1)·n baseline.
	Topological = solve.Topological
	// TopoBelady is the topological-order + Belady heuristic.
	TopoBelady = solve.TopoBelady
	// MinVisitOrder solves the minimum-cost visit-order DP (Held-Karp).
	MinVisitOrder = solve.MinVisitOrder
	// ExactDFS is the depth-first exact solver (oneshot/nodel):
	// iterative-deepening A* on f = g+h.
	ExactDFS = solve.ExactDFS
	// RandomOrders samples random topological orders with Belady eviction.
	RandomOrders = solve.RandomOrders
)

// ---- Anytime orchestration and serving ----

type (
	// AnytimeOptions configures the deadline-driven orchestrator
	// (budget, table memory budget, progress streaming, warm start).
	AnytimeOptions = anytime.Options
	// AnytimeResult is a certified anytime answer: the incumbent's
	// verified trace plus the [lower, upper] interval and its gap.
	AnytimeResult = anytime.Result
	// AnytimeSnapshot is one point of the anytime convergence curve,
	// streamed through AnytimeOptions.OnProgress.
	AnytimeSnapshot = anytime.Snapshot
	// AnytimeWarmStart resumes refinement from a previously certified
	// interval of the same instance (AnytimeOptions.Warm).
	AnytimeWarmStart = anytime.WarmStart
	// ExactProgress is a periodic snapshot of a running exact search,
	// delivered by ExactOptions.Progress and ExactDFSOptions.Progress.
	// It is the same type the anytime orchestrator streams through
	// AnytimeOptions.OnSearch and the service serves as JSON.
	ExactProgress = solve.ExactProgress
	// ServiceConfig tunes an embedded rbserve HTTP server.
	ServiceConfig = service.Config
	// ClusterProxyConfig tunes an embedded rbproxy cluster front end.
	ClusterProxyConfig = cluster.ProxyConfig
)

var (
	// Anytime runs the heuristics and then serial A* under a deadline
	// to refine the certified interval: on hard instances it returns the best incumbent trace
	// with a certified optimality gap instead of an error, and with an
	// unconstrained budget it runs to a proven optimum.
	Anytime = anytime.Solve
	// RootLowerBound returns the admissible heuristic's instant lower
	// bound on an instance's optimal scaled cost.
	RootLowerBound = solve.RootLowerBound
	// NewServer builds the rbserve HTTP service (solve endpoints, the
	// fast and heavy solve lanes, canonical cache, metrics) for
	// embedding; cmd/rbserve is the standalone binary.
	NewServer = service.New
	// NewClusterProxy builds the rendezvous-hashing routing front end
	// for a fleet of rbserve replicas (canonical-key routing, failover,
	// merged metrics/health); cmd/rbproxy is the standalone binary.
	NewClusterProxy = cluster.NewProxy
	// ClusterOwners orders cluster members for a canonical instance key
	// by rendezvous weight, highest first: the proxy's placement rule.
	ClusterOwners = cluster.Owners
)

// Sentinel errors of the exact solvers.
var (
	// ErrStateLimit: Exact exhausted ExactOptions.MaxStates.
	ErrStateLimit = solve.ErrStateLimit
	// ErrVisitLimit: ExactDFS exhausted ExactDFSOptions.MaxVisits.
	ErrVisitLimit = solve.ErrVisitLimit
	// ErrCanceled: a solver's Cancel channel fired first; the stats
	// snapshot still carries the certified LowerBound it had proven.
	ErrCanceled = solve.ErrCanceled
	// ErrMemoryBudget: the visited table outgrew
	// ExactOptions.MaxTableBytes; like ErrCanceled the stats snapshot
	// keeps the certified partial interval proven up to the abort.
	ErrMemoryBudget = solve.ErrMemoryBudget
	// ErrInfeasible: the instance admits no complete pebbling.
	ErrInfeasible = solve.ErrInfeasible
)

// ---- Gadgets and constructions ----

type (
	// Tradeoff is the Figure 3 time-memory tradeoff DAG.
	Tradeoff = gadgets.Tradeoff
	// CD is the constant-degree gadget of Figure 1.
	CD = gadgets.CD
	// H2C is the hard-to-compute gadget of Figure 2.
	H2C = gadgets.H2C
	// GreedyGrid is the Figure 8 misguidance grid.
	GreedyGrid = gadgets.GreedyGrid
	// GridPos addresses a greedy-grid input group.
	GridPos = gadgets.GridPos
)

var (
	// NewTradeoff builds the Figure 3 DAG.
	NewTradeoff = gadgets.NewTradeoff
	// NewCD builds a standalone CD gadget.
	NewCD = gadgets.NewCD
	// AttachCD splices a CD gadget into an existing DAG.
	AttachCD = gadgets.AttachCD
	// AttachH2C protects source nodes with a shared H2C gadget.
	AttachH2C = gadgets.AttachH2C
	// SingleSource applies the §3 single-source transformation.
	SingleSource = gadgets.SingleSource
	// ConstantDegree rewrites a DAG to maximum indegree 2 (Appendix B).
	ConstantDegree = gadgets.ConstantDegree
	// NewGreedyGrid builds the Theorem 4 grid.
	NewGreedyGrid = gadgets.NewGreedyGrid
)

// ---- Source problems and reductions ----

type (
	// UGraph is an undirected simple graph.
	UGraph = ugraph.Graph
	// HamPathReduction is the Theorem 2 instance.
	HamPathReduction = reduce.HamPath
	// VertexCoverReduction is the Theorem 3 instance.
	VertexCoverReduction = reduce.VertexCover
	// Visit identifies a group visit in the Vertex Cover reduction.
	Visit = reduce.Visit
)

var (
	// NewUGraph returns an empty undirected graph.
	NewUGraph = ugraph.New
	// RandomUGraph returns a G(n,p) graph.
	RandomUGraph = ugraph.Random
	// SolveHamPath decides Hamiltonian Path exactly (Held-Karp).
	SolveHamPath = hampath.Solve
	// ExactVertexCover returns a minimum vertex cover.
	ExactVertexCover = vcover.Exact
	// TwoApproxVertexCover returns the matching 2-approximation.
	TwoApproxVertexCover = vcover.TwoApprox
	// NewHamPathReduction builds the Theorem 2 pebbling instance.
	NewHamPathReduction = reduce.NewHamPath
	// NewVertexCoverReduction builds the Theorem 3 pebbling instance.
	NewVertexCoverReduction = reduce.NewVertexCover
)

// ---- Extensions: multi-level hierarchies and multi-processor games ----

type (
	// Hierarchy describes a multi-level memory system (levels beyond
	// two; the classic game is Hierarchy{Limits: []int{R}, Costs: []int{1}}).
	Hierarchy = multilevel.Hierarchy
	// ParallelConfig describes a multi-processor pebbling machine.
	ParallelConfig = parpeb.Config
	// ParallelAssignment maps nodes to processors.
	ParallelAssignment = parpeb.Assignment
)

var (
	// NewHierarchy validates and builds a multi-level hierarchy.
	NewHierarchy = multilevel.NewHierarchy
	// ExecuteMultilevel pebbles a DAG on a multi-level hierarchy.
	ExecuteMultilevel = multilevel.Execute
	// ExecuteParallel pebbles a DAG on a multi-processor machine.
	ExecuteParallel = parpeb.Execute
	// RoundRobinAssignment spreads nodes cyclically over processors.
	RoundRobinAssignment = parpeb.RoundRobin
	// BlockAssignment splits the order into contiguous per-processor blocks.
	BlockAssignment = parpeb.Blocks
)

// ---- Experiments ----

type (
	// Report is one regenerated paper table or figure.
	Report = experiments.Report
)

var (
	// AllExperiments regenerates every table and figure; each report
	// carries the checks that test the paper's claim on its rows.
	AllExperiments = experiments.All
	// RunAllExperiments renders every report to a writer and returns an
	// error naming the reports whose checks fail.
	RunAllExperiments = experiments.RunAll
)
