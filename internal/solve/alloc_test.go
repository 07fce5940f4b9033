package solve

import (
	"runtime"
	"testing"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestSerialSearchAllocGuard pins serial A*'s allocation to the memory
// it ends up holding: on pyramid(6) R=4 (31,728 distinct states) the
// whole solve may allocate at most twice the final footprint of its
// table, node log and open list. Search memory that grows by copying
// allocates every slab several times over and fails this.
func TestSerialSearchAllocGuard(t *testing.T) {
	p := Problem{G: daggen.Pyramid(6), Model: pebble.NewModel(pebble.Oneshot), R: 4}
	start, err := pebble.NewState(p.G, p.Model, p.R, p.Convention)
	if err != nil {
		t.Fatal(err)
	}
	var m serialMem
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := exactSerial(p, ExactOptions{}, start, 50_000_000, &m); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	held := m.bytes()
	t.Logf("allocated %d bytes, held %d (table %d, nodes %d, queue %d), %d states",
		alloc, held, m.table.bytes(), m.nodes.bytes(), m.open.bytes(), m.table.count())
	if alloc > 2*held {
		t.Errorf("serial A* allocated %d bytes for %d bytes of search memory, want <= 2x", alloc, held)
	}
}
