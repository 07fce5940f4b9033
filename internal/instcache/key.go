// Package instcache gives pebbling instances canonical identities and
// caches their solutions behind a bounded LRU with singleflight
// deduplication, so a serving front end never solves the same instance
// twice — not even when two concurrent requests describe it with
// different node numberings.
//
// The canonical key is the graph digest of package canon (color
// refinement plus bounded individualize-and-refine tie-breaking)
// combined with every cost-relevant parameter. Two instances with equal
// keys are genuinely isomorphic (up to SHA-256 collisions), so a budget
// exhaustion in the labeling search can only cost cache hits, never
// poison the cache.
package instcache

import (
	"fmt"

	"rbpebble/internal/canon"
	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// Instance is one cacheable pebbling problem.
type Instance struct {
	G          *dag.DAG
	Model      pebble.Model
	R          int
	Convention pebble.Convention
}

// Key returns the canonical cache key of the instance — the canonical
// graph digest combined with every cost-relevant parameter — and the
// canonical permutation (perm[orig] = canonical ID) that relabels the
// instance into canonical numbering. It builds no automorphism group.
func (in Instance) Key() (string, []dag.NodeID) {
	l := canon.Search(in.G)
	key := fmt.Sprintf("%x|%s|eps%d|r%d|sb%t|bb%t",
		l.Digest, in.Model.Kind, in.Model.EpsDenom, in.R,
		in.Convention.SourcesStartBlue, in.Convention.SinksMustBeBlue)
	return key, l.Perm
}

// ToCanonical maps a move sequence from original node IDs to canonical
// ones (perm[orig] = canonical).
func ToCanonical(moves []pebble.Move, perm []dag.NodeID) []pebble.Move {
	out := make([]pebble.Move, len(moves))
	for i, m := range moves {
		out[i] = pebble.Move{Kind: m.Kind, Node: perm[m.Node]}
	}
	return out
}

// FromCanonical maps a canonical-ID move sequence back to the node IDs
// of an instance whose canonical permutation is perm.
func FromCanonical(moves []pebble.Move, perm []dag.NodeID) []pebble.Move {
	inv := make([]dag.NodeID, len(perm))
	for v, c := range perm {
		inv[c] = dag.NodeID(v)
	}
	out := make([]pebble.Move, len(moves))
	for i, m := range moves {
		out[i] = pebble.Move{Kind: m.Kind, Node: inv[m.Node]}
	}
	return out
}
