package canon_test

import (
	"testing"

	"rbpebble/internal/canon"
	"rbpebble/internal/reduce"
	"rbpebble/internal/ugraph"
)

// TestHamPathK5Group: the Theorem 2 reduction of K5 inherits the full
// symmetric group S5 of its source graph. The test lives outside
// package canon because reduce imports solve, which imports canon.
func TestHamPathK5Group(t *testing.T) {
	g := reduce.NewHamPath(ugraph.Complete(5)).G
	if got := canon.Search(g).Group().Order().Int64(); got != 120 {
		t.Fatalf("|Aut(HamPath(K5))| = %d, want 120", got)
	}
}
