package service

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestWorkIndependentOfNumbering: a flight solves the instance in
// canonical numbering, so the engine's effort and the cached incumbent
// do not depend on how the request numbered its nodes. The layered DAG
// has a trivial automorphism group, so an engine handed the request's
// own numbering would search that numbering (and expand a different
// number of states for each).
func TestWorkIndependentOfNumbering(t *testing.T) {
	g := daggen.RandomLayered(5, 5, 2, 13)
	r := pebble.MinFeasibleR(g)
	rng := rand.New(rand.NewSource(1))
	graphs := []*dag.DAG{g}
	for range 2 {
		perm := make([]dag.NodeID, g.N())
		for v, w := range rng.Perm(g.N()) {
			perm[v] = dag.NodeID(w)
		}
		graphs = append(graphs, g.Relabel(perm))
	}
	var expanded []uint64
	var moves [][]pebble.Move
	for i, h := range graphs {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":%d,"deadline_ms":20000}`, dagJSON(t, h), r)
		if code, sr, raw := postSolve(t, ts, body); code != http.StatusOK || !sr.Optimal {
			t.Fatalf("numbering %d: %d %s", i, code, raw)
		}
		recs := getSolves(t, ts, 0).Records
		entries := s.ExportCache()
		ts.Close()
		s.Close()
		if len(recs) != 1 || recs[0].Disposition != "cold" || len(entries) != 1 {
			t.Fatalf("numbering %d: %d records, %d cache entries, want one cold solve", i, len(recs), len(entries))
		}
		expanded = append(expanded, recs[0].Expanded)
		moves = append(moves, entries[0].Value.Moves)
	}
	t.Logf("expanded %v", expanded)
	for i := 1; i < len(graphs); i++ {
		if expanded[i] != expanded[0] {
			t.Errorf("expanded %v: the engine's effort depends on the request's numbering", expanded)
			break
		}
		if !reflect.DeepEqual(moves[i], moves[0]) {
			t.Errorf("numbering %d cached other moves than the identity numbering", i)
		}
	}
}

// TestNoKeyRegistryWithoutRefiner: the key registry exists for the
// background refiner alone, so with the refiner off (the default) cold
// solves register nothing.
func TestNoKeyRegistryWithoutRefiner(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, g := range []*dag.DAG{daggen.Pyramid(3), daggen.Chain(4), daggen.FFT(2)} {
		body := fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":3}`, dagJSON(t, g))
		if code, sr, raw := postSolve(t, ts, body); code != http.StatusOK || sr.Cached {
			t.Fatalf("cold solve: %d %s", code, raw)
		}
	}
	s.knownMu.Lock()
	defer s.knownMu.Unlock()
	if len(s.known) != 0 || len(s.knownOrder) != 0 {
		t.Fatalf("%d keys registered with the refiner off", len(s.known))
	}
}
