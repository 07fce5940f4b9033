package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/service"
	"rbpebble/internal/solve"
)

// Every input is generated from the workload seed alone, through named
// streams (streamRand), and the program receives only the generated
// requests. The same seed gives byte-identical request bodies.

// class is an isomorphism class of instances: a base graph and the solve
// parameters. opt is its known optimal scaled cost (0 when unknown).
type class struct {
	name  string
	g     *dag.DAG
	model string
	r     int
	opt   int64
}

// request is one generated solve request: the wire form and exact bytes
// sent, the requester's own problem (the gate replays answers on it), and
// what is known about its class.
type request struct {
	class    string
	wire     service.SolveRequest
	body     []byte
	p        solve.Problem
	opt      int64
	async    bool
	deadline time.Duration // the budget the server applies; its cache tier
	limit    time.Duration // exact workload: time cap on the proof
}

// request builds a request for g, a graph isomorphic to the class's.
func (c class) request(g *dag.DAG, deadlineMS int, async bool) (*request, error) {
	gj, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	wire := service.SolveRequest{DAG: gj, Model: c.model, R: c.r, DeadlineMS: deadlineMS, Async: async, IncludeTrace: true}
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, err
	}
	p, err := service.BuildProblem(wire, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return &request{
		class:    c.name,
		wire:     wire,
		body:     body,
		p:        p,
		opt:      c.opt,
		async:    async,
		deadline: time.Duration(deadlineMS) * time.Millisecond,
	}, nil
}

// relabels returns n requests for random relabelings of the class.
func (c class) relabels(n, deadlineMS int, async bool, rng *rand.Rand) ([]*request, error) {
	out := make([]*request, n)
	for i := range out {
		req, err := c.request(relabel(c.g, rng), deadlineMS, async)
		if err != nil {
			return nil, err
		}
		out[i] = req
	}
	return out, nil
}

// relabel returns g with its nodes renumbered by a random permutation.
func relabel(g *dag.DAG, rng *rand.Rand) *dag.DAG {
	perm := rng.Perm(g.N())
	h := dag.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			h.AddEdge(dag.NodeID(perm[v]), dag.NodeID(perm[w]))
		}
	}
	return h
}

// layered is a random layered class with in-degree at most 2, at the
// smallest feasible red-pebble count.
func layered(name string, layers, width int, rng *rand.Rand) class {
	g := daggen.RandomLayered(layers, width, 2, rng.Int63())
	return class{name: name, g: g, model: "oneshot", r: pebble.MinFeasibleR(g)}
}

// streamRand returns the generator of one named input stream of a seed,
// so adding a stream never shifts what another stream draws.
func streamRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// digest hashes byte strings in order, each length-prefixed.
func digest(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bodies(reqs []*request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	return out
}

// The exact workload's corpus: fixed instances with known optima, and
// random layered DAGs (5 layers of 5, in-degree at most 2) that close in
// about half a second. The workload seed relabels every instance. It does
// not draw fresh random DAGs: their proof times range over 0.3-3.3s from
// one draw to the next, so solve_s would measure the draw, not the code.
// Base and compcost instances are left out: pyramid(5) R=4 does not close
// within 20s in either model, so they would only measure the time cap.
const (
	exactFixedCap  = 60 * time.Second
	exactRandomCap = 20 * time.Second
)

// exactLayeredSeeds are the daggen seeds of the random layered instances.
var exactLayeredSeeds = []int64{2, 6, 7, 13}

func exactClasses() []class {
	classes := []class{
		{"fft3-r3", daggen.FFT(3), "oneshot", 3, 31},
		{"pyramid6-r4", daggen.Pyramid(6), "oneshot", 4, 12},
		{"pyramid5-r4", daggen.Pyramid(5), "oneshot", 4, 8},
		{"pyramid5-r4-nodel", daggen.Pyramid(5), "nodel", 4, 25},
		{"grid5x5-r3", daggen.Grid(5, 5), "oneshot", 3, 24},
	}
	for _, s := range exactLayeredSeeds {
		g := daggen.RandomLayered(5, 5, 2, s)
		classes = append(classes, class{fmt.Sprintf("layered5x5-s%d", s), g, "oneshot", pebble.MinFeasibleR(g), 0})
	}
	return classes
}

func exactCorpus(seed int64) ([]*request, error) {
	rng := streamRand(seed, "exact")
	var out []*request
	for _, c := range exactClasses() {
		reqs, err := c.relabels(1, 0, false, rng)
		if err != nil {
			return nil, err
		}
		reqs[0].limit = exactFixedCap
		if c.opt == 0 {
			reqs[0].limit = exactRandomCap
		}
		out = append(out, reqs[0])
	}
	return out, nil
}

// The serve workload's traffic, per client, repeats a cycle of serveCycle
// slots: one hard class under a deadline sent synchronously, one sent
// async and polled, two never-seen classes that prove within their
// deadline, and cache hits on relabelings of the working set in every
// other slot. The working set is far smaller than the 256-entry cache.
const (
	serveCycle      = 64
	serveSchedLen   = 16384 // per client; more than a 60s window consumes
	serveRelabels   = 8
	serveWarmMS     = 2000
	serveHitMS      = 100
	serveColdMS     = 1000
	serveHardMS     = 250 // heavy lane
	serveAsyncMS    = 120 // async job queue
	serveColdLayers = 4
	serveColdWidth  = 4
)

type serveCorpus struct {
	// warm stores every working-set and hard class before the window.
	warm []*request
	// hits are the working set's relabelings.
	hits []*request
	// sched is each client's request sequence.
	sched  [serveClients][]*request
	digest string
}

func serveWorkingSet(rng *rand.Rand) []class {
	set := []class{
		{"pyramid4-r3", daggen.Pyramid(4), "oneshot", 3, 0},
		{"pyramid5-r4", daggen.Pyramid(5), "oneshot", 4, 8},
		{"pyramid6-r4", daggen.Pyramid(6), "oneshot", 4, 12},
		{"pyramid4-r3-nodel", daggen.Pyramid(4), "nodel", 3, 0},
		{"grid4x4-r3", daggen.Grid(4, 4), "oneshot", 3, 0},
		{"grid5x5-r3", daggen.Grid(5, 5), "oneshot", 3, 24},
		{"fft2-r3", daggen.FFT(2), "oneshot", 3, 0},
		{"bintree4-r3", daggen.BinaryTree(4), "oneshot", 3, 0},
		{"chain12-r2", daggen.Chain(12), "oneshot", 2, 0},
		{"karytree3x3-r4", daggen.KaryTree(3, 3), "oneshot", 4, 0},
	}
	for i := 0; i < 5; i++ {
		set = append(set, layered(fmt.Sprintf("ws-layered4x4-%d", i), 4, 4, rng))
	}
	return set
}

// serveHard are each client's hard classes: one sent synchronously at
// serveHardMS, one async at serveAsyncMS. None closes within its deadline,
// so every repeat warm-starts from the cached interval. Each client has
// its own, so the two never share a flight and the mix does not depend on
// how their requests happen to overlap.
func serveHard() [serveClients][2]class {
	return [serveClients][2]class{
		{{"fft3-r3", daggen.FFT(3), "oneshot", 3, 31}, {"pyramid5-r4-base", daggen.Pyramid(5), "base", 4, 0}},
		{{"fft3-r3-nodel", daggen.FFT(3), "nodel", 3, 0}, {"pyramid5-r3-base", daggen.Pyramid(5), "base", 3, 0}},
	}
}

func buildServeCorpus(seed int64) (*serveCorpus, error) {
	rng := streamRand(seed, "serve")
	c := &serveCorpus{}
	for _, cl := range serveWorkingSet(rng) {
		w, err := cl.request(cl.g, serveWarmMS, false)
		if err != nil {
			return nil, err
		}
		hits, err := cl.relabels(serveRelabels, serveHitMS, false, rng)
		if err != nil {
			return nil, err
		}
		c.warm = append(c.warm, w)
		c.hits = append(c.hits, hits...)
	}
	var hard, async [serveClients][]*request
	for i, pair := range serveHard() {
		for j, deadline := range []int{serveHardMS, serveAsyncMS} {
			cl := pair[j]
			w, err := cl.request(cl.g, deadline, false)
			if err != nil {
				return nil, err
			}
			reqs, err := cl.relabels(serveRelabels, deadline, j == 1, rng)
			if err != nil {
				return nil, err
			}
			c.warm = append(c.warm, w)
			if j == 0 {
				hard[i] = reqs
			} else {
				async[i] = reqs
			}
		}
	}

	parts := bodies(c.warm)
	for i := range c.sched {
		sched := make([]*request, serveSchedLen)
		cold := 0
		for k := range sched {
			switch k % serveCycle {
			case 0:
				sched[k] = hard[i][k/serveCycle%serveRelabels]
			case serveCycle / 2:
				sched[k] = async[i][k/serveCycle%serveRelabels]
			case serveCycle / 4, 3 * serveCycle / 4:
				cl := layered(fmt.Sprintf("cold-%d-%d", i, cold), serveColdLayers, serveColdWidth, rng)
				req, err := cl.request(cl.g, serveColdMS, false)
				if err != nil {
					return nil, err
				}
				sched[k] = req
				cold++
			default:
				sched[k] = c.hits[rng.Intn(len(c.hits))]
			}
			parts = append(parts, sched[k].body)
		}
		c.sched[i] = sched
	}
	c.digest = digest(parts...)
	return c, nil
}

// The batch workload's inputs: batchBodies distinct 64-item batches, sent
// in rotation. Every batch holds batchItems/len(pool) relabelings of each
// pool class: symmetric structured graphs, whose canonicalization is the
// expensive case, and random layered graphs. Equal composition keeps the
// batches equally expensive, so batch latency does not depend on which
// bodies a window happens to reach.
const (
	batchItems  = 64
	batchBodies = 8
	batchMS     = 20 // tier 5
	// batchWarmMS stores every class at tier 7, strictly above the
	// measured tier, so the cache probe serves every measured item.
	batchWarmMS = 64
	// canonExactAbove is the size above which instcache keys a graph by
	// its exact representation: relabelings of a larger graph are
	// distinct keys, so its items repeat the warmed labeling.
	canonExactAbove = 512
)

type batchCorpus struct {
	warm   []*request
	bodies [][]byte
	items  [][]*request // per body, in request order
	digest string
}

// batchPool is the batch workload's classes. The random layered ones are
// fixed draws (daggen seeds 1 and 2), like exact's: over ten workload
// seeds, fresh draws moved items_per_s by 30%.
func batchPool() []class {
	return []class{
		{"fft4-r3", daggen.FFT(4), "oneshot", 3, 0},
		{"pyramid12-r3", daggen.Pyramid(12), "oneshot", 3, 0},
		{"pyramid16-r3", daggen.Pyramid(16), "oneshot", 3, 0},
		{"pyramid20-r3", daggen.Pyramid(20), "oneshot", 3, 0},
		{"grid8x8-r3", daggen.Grid(8, 8), "oneshot", 3, 0},
		{"grid10x10-r3", daggen.Grid(10, 10), "oneshot", 3, 0},
		{"layered20x20", daggen.RandomLayered(20, 20, 2, 1), "oneshot", 3, 0},
		{"layered24x24", daggen.RandomLayered(24, 24, 2, 2), "oneshot", 3, 0},
	}
}

func buildBatchCorpus(seed int64) (*batchCorpus, error) {
	rng := streamRand(seed, "batch")
	pool := batchPool()
	c := &batchCorpus{}
	for _, cl := range pool {
		w, err := cl.request(cl.g, batchWarmMS, false)
		if err != nil {
			return nil, err
		}
		c.warm = append(c.warm, w)
	}
	parts := bodies(c.warm)
	for b := 0; b < batchBodies; b++ {
		var items []*request
		for _, cl := range pool {
			for i := 0; i < batchItems/len(pool); i++ {
				g := cl.g
				if g.N() <= canonExactAbove {
					g = relabel(g, rng)
				}
				req, err := cl.request(g, 0, false)
				if err != nil {
					return nil, err
				}
				req.deadline = batchMS * time.Millisecond
				items = append(items, req)
			}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		wire := service.BatchRequest{DeadlineMS: batchMS, IncludeTrace: true}
		for _, it := range items {
			wire.Items = append(wire.Items, it.wire)
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, body)
		c.items = append(c.items, items)
		parts = append(parts, body)
	}
	c.digest = digest(parts...)
	return c, nil
}
