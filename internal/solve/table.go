package solve

import (
	"math"

	"rbpebble/internal/pebble"
)

// Sentinel best-cost values for table entries. A fresh state starts at
// costUnreached; a state proven unwinnable is marked costDead, which
// compares below every real cost so no future path re-opens it.
const (
	costUnreached = math.MaxInt64
	costDead      = math.MinInt64
)

// hashKey mixes a packed state key into a 64-bit hash (a splitmix64
// finalizer folded over the words). Solvers use it for table probing.
func hashKey(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// stateTable is the visited-state set of the exact solvers: an
// open-addressing (linear probing) hash table keyed on packed state
// encodings. Every distinct state gets a dense ref (0, 1, 2, ...) whose
// entire record — payload words first (best known scaled path cost,
// optionally the cached heuristic), then the key words — is one row of
// a chunkList, so the table grows without copying its records. A probe
// slot is a single packed uint64 (high 32 bits of the state hash as a
// tag, ref+1 in the low 32 bits, 0 meaning empty), so probing touches
// half the memory of a (hash, ref) pair layout and a hit lands on one
// row where the cost, the heuristic and the key share cache lines. Only
// the probe-slot array doubles (and rehashes) as the table grows.
type stateTable struct {
	kw    int // words per key (0 only for the empty graph)
	pw    int // payload words per entry (>= 1; payload[0] = best cost)
	mask  uint64
	slots []uint64 // tag<<32 | ref+1, 0 = empty
	rows  chunkList[uint64]
}

// Payload slot indices. Every table stores the best known scaled cost
// in payload word 0; tables built with payloadWithH additionally cache
// the admissible heuristic estimate in payload word 1, replacing the
// per-engine `hs []int64` side arrays.
const (
	payloadBestOnly = 1
	payloadWithH    = 2
)

func newStateTable(kw, pw, hintStates int) *stateTable {
	size := 1024
	for size < 2*hintStates {
		size *= 2
	}
	return &stateTable{
		kw:    kw,
		pw:    pw,
		mask:  uint64(size - 1),
		slots: make([]uint64, size),
		rows:  newChunkList[uint64](kw+pw, hintStates),
	}
}

// count returns the number of distinct states stored.
func (t *stateTable) count() int { return t.rows.len() }

// bytes returns the table's current backing-store footprint: probe
// slots plus allocated chunk capacity. The table only grows between
// resets, so at search end this is the peak.
func (t *stateTable) bytes() int64 {
	return int64(len(t.slots))*8 + t.rows.bytes()
}

// reset empties the table while keeping its slots and chunks, so
// iterative searches (IDA* re-runs the memo once per threshold) reuse
// them instead of reallocating.
func (t *stateTable) reset() {
	clear(t.slots)
	t.rows.reset()
}

// key returns the packed key of state ref (a view into its row; keys
// never change, so the view stays valid across later inserts).
func (t *stateTable) key(ref int32) pebble.PackedKey {
	return pebble.PackedKey(t.rows.row(ref)[t.pw:])
}

// best returns the best known scaled path cost of state ref.
func (t *stateTable) best(ref int32) int64 {
	return int64(t.rows.row(ref)[0])
}

// setBest updates the best known scaled path cost of state ref.
func (t *stateTable) setBest(ref int32, v int64) {
	t.rows.row(ref)[0] = uint64(v)
}

// h returns the cached heuristic of state ref (payloadWithH tables).
func (t *stateTable) h(ref int32) int64 {
	return int64(t.rows.row(ref)[1])
}

// setH caches the heuristic of state ref (payloadWithH tables).
func (t *stateTable) setH(ref int32, v int64) {
	t.rows.row(ref)[1] = uint64(v)
}

// lookupOrAdd returns the dense ref of key (with hash h), inserting it
// with best = costUnreached (and zeroed extra payload) when absent.
func (t *stateTable) lookupOrAdd(key []uint64, h uint64) (ref int32, isNew bool) {
	if t.count() >= len(t.slots)*7/10 {
		t.grow()
	}
	tag := h >> 32 << 32
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			ref = int32(t.count())
			row := t.rows.add()
			row[0] = uint64(int64(costUnreached))
			clear(row[1:t.pw])
			copy(row[t.pw:], key)
			t.slots[i] = tag | uint64(uint32(ref)+1)
			return ref, true
		}
		if s&^math.MaxUint32 == tag {
			r := int32(uint32(s) - 1)
			if t.keyEqual(r, key) {
				return r, false
			}
		}
		i = (i + 1) & t.mask
	}
}

func (t *stateTable) keyEqual(ref int32, key []uint64) bool {
	a := t.key(ref)
	for i, w := range key {
		if a[i] != w {
			return false
		}
	}
	return true
}

// grow doubles the probe array. Slots store only the high 32 hash bits,
// so rehoming recomputes each entry's full hash from its stored key —
// one cheap splitmix pass per entry, amortized over the doubling
// schedule, in exchange for half-size slots on every probe ever made.
func (t *stateTable) grow() {
	slots := make([]uint64, 2*len(t.slots))
	mask := uint64(len(slots) - 1)
	n := t.count()
	for r := 0; r < n; r++ {
		h := hashKey(t.key(int32(r)))
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = h>>32<<32 | uint64(uint32(r)+1)
	}
	t.slots, t.mask = slots, mask
}
