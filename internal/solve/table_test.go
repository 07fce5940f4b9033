package solve

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// refTable is the straightforward reference the chunked stateTable is
// checked against: a Go map from the key's string form to the
// payload values.
type refTable struct {
	refs map[string]int32
	best []int64
	h    []int64
	keys [][]uint64
}

func newRefTable() *refTable { return &refTable{refs: map[string]int32{}} }

func refKeyString(key []uint64) string {
	b := make([]byte, 0, len(key)*8)
	for _, w := range key {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(w>>s))
		}
	}
	return string(b)
}

func (r *refTable) lookupOrAdd(key []uint64) (int32, bool) {
	ks := refKeyString(key)
	if ref, ok := r.refs[ks]; ok {
		return ref, false
	}
	ref := int32(len(r.best))
	r.refs[ks] = ref
	r.best = append(r.best, costUnreached)
	r.h = append(r.h, 0)
	r.keys = append(r.keys, append([]uint64(nil), key...))
	return ref, true
}

// checkTableAgainstRef drives tab (empty, payloadWithH) and a fresh
// reference with the same operation sequence and fails on any
// divergence: ref assignment, isNew flags, key round-trips, payload
// round-trips, count. Key views taken along the way must still read
// their keys after every later insert.
func checkTableAgainstRef(t *testing.T, tab *stateTable, keys [][]uint64) {
	t.Helper()
	ref := newRefTable()
	views := map[int32][]uint64{}
	for i, key := range keys {
		gotRef, gotNew := tab.lookupOrAdd(key, hashKey(key))
		wantRef, wantNew := ref.lookupOrAdd(key)
		if gotRef != wantRef || gotNew != wantNew {
			t.Fatalf("op %d: lookupOrAdd = (%d, %v), want (%d, %v)", i, gotRef, gotNew, wantRef, wantNew)
		}
		if gotNew {
			if tab.best(gotRef) != costUnreached {
				t.Fatalf("op %d: fresh entry best = %d, want costUnreached", i, tab.best(gotRef))
			}
			if tab.h(gotRef) != 0 {
				t.Fatalf("op %d: fresh entry h = %d, want 0", i, tab.h(gotRef))
			}
		}
		// Exercise the payload slots with values derived from the op
		// index (including the sentinels).
		switch i % 4 {
		case 0:
			ref.best[gotRef] = int64(i)
			tab.setBest(gotRef, int64(i))
		case 1:
			ref.best[gotRef] = costDead
			tab.setBest(gotRef, costDead)
		case 2:
			ref.h[gotRef] = int64(i * 3)
			tab.setH(gotRef, int64(i*3))
		}
		if tab.best(gotRef) != ref.best[gotRef] {
			t.Fatalf("op %d: best(%d) = %d, want %d", i, gotRef, tab.best(gotRef), ref.best[gotRef])
		}
		if tab.h(gotRef) != ref.h[gotRef] {
			t.Fatalf("op %d: h(%d) = %d, want %d", i, gotRef, tab.h(gotRef), ref.h[gotRef])
		}
		if gotNew && gotRef%97 == 0 {
			views[gotRef] = tab.key(gotRef)
		}
	}
	for r, view := range views {
		for i, w := range ref.keys[r] {
			if view[i] != w {
				t.Fatalf("key view of %d taken at insert: word %d = %#x after later inserts, want %#x", r, i, view[i], w)
			}
		}
	}
	if tab.count() != len(ref.best) {
		t.Fatalf("count = %d, want %d", tab.count(), len(ref.best))
	}
	if tab.bytes() <= 0 {
		t.Fatalf("bytes() = %d, want > 0", tab.bytes())
	}
	// Every stored key must round-trip from its ref, and every payload
	// must have survived the growth rehashes.
	for r := int32(0); r < int32(tab.count()); r++ {
		got := tab.key(r)
		want := ref.keys[r]
		if len(got) != len(want) {
			t.Fatalf("key(%d) length %d, want %d", r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key(%d) word %d = %#x, want %#x", r, i, got[i], want[i])
			}
		}
		if tab.best(r) != ref.best[r] || tab.h(r) != ref.h[r] {
			t.Fatalf("payload(%d) = (%d, %d), want (%d, %d)",
				r, tab.best(r), tab.h(r), ref.best[r], ref.h[r])
		}
		again, isNew := tab.lookupOrAdd(want, hashKey(want))
		if isNew || again != r {
			t.Fatalf("re-lookup of key(%d) = (%d, %v)", r, again, isNew)
		}
	}
}

// TestStateTableAgainstReference drives the arena table with random
// key streams (heavy duplication, adversarially small key space so tag
// collisions and probe chains occur) and checks it against the map
// reference.
func TestStateTableAgainstReference(t *testing.T) {
	for _, kw := range []int{1, 2, 3, 6} {
		rng := rand.New(rand.NewSource(int64(kw) * 7919))
		var keys [][]uint64
		for i := 0; i < 20000; i++ {
			key := make([]uint64, kw)
			for j := range key {
				// Tiny value domain: forces duplicates and shared hash
				// prefixes.
				key[j] = uint64(rng.Intn(64))
			}
			keys = append(keys, key)
		}
		checkTableAgainstRef(t, newStateTable(kw, payloadWithH, 4), keys)
	}
}

// TestStateTableAcrossChunks checks the table against the reference
// well past its first chunks (200k inserts of 5-word rows), then resets
// it and checks it again on a second key stream: reset keeps the
// chunks, and reused rows must not leak their earlier contents.
func TestStateTableAcrossChunks(t *testing.T) {
	const kw, n = 3, 200_000
	stream := func(seed int64) [][]uint64 {
		rng := rand.New(rand.NewSource(seed))
		keys := make([][]uint64, 0, n)
		for i := 0; i < n; i++ {
			if i%5 == 4 {
				keys = append(keys, keys[rng.Intn(i)]) // a duplicate
				continue
			}
			key := make([]uint64, kw)
			for j := range key {
				key[j] = rng.Uint64() >> uint(rng.Intn(64))
			}
			keys = append(keys, key)
		}
		return keys
	}
	tab := newStateTable(kw, payloadWithH, 4)
	checkTableAgainstRef(t, tab, stream(1))
	if chunks := len(tab.rows.chunks); chunks < 4 {
		t.Fatalf("%d states fill %d chunks, want >= 4", tab.count(), chunks)
	}
	peak := tab.bytes()
	tab.reset()
	checkTableAgainstRef(t, tab, stream(2)[:n/2])
	if got := tab.bytes(); got != peak {
		t.Fatalf("bytes() after reset and reuse = %d, want the first run's %d", got, peak)
	}
}

// TestChunkListNodeLog runs a one-element-row log (the shape of the
// engines' node logs) across several chunks and a reset.
func TestChunkListNodeLog(t *testing.T) {
	l := newChunkList[searchNode](1, 3)
	for round := 0; round < 2; round++ {
		const n = 200_000
		for i := 0; i < n; i++ {
			nd := searchNode{parent: int32(i - 1), ref: int32(i + round), move: packedMove(i)}
			if got := l.push(nd); got != int32(i) {
				t.Fatalf("push %d returned index %d", i, got)
			}
		}
		if l.len() != n || len(l.chunks) < 3 {
			t.Fatalf("len %d in %d chunks, want %d in >= 3", l.len(), len(l.chunks), n)
		}
		for i := int32(0); i < n; i++ {
			want := searchNode{parent: i - 1, ref: i + int32(round), move: packedMove(i)}
			if got := l.at(i); got != want {
				t.Fatalf("round %d: at(%d) = %+v, want %+v", round, i, got, want)
			}
		}
		l.reset()
	}
}

// TestPackedMoveRoundTrip checks that every move kind survives packing
// with node IDs up to the largest packable one.
func TestPackedMoveRoundTrip(t *testing.T) {
	for _, kind := range []pebble.MoveKind{pebble.Load, pebble.Store, pebble.Compute, pebble.Delete} {
		for _, v := range []dag.NodeID{0, 1, 12345, maxPackedNode - 1, maxPackedNode} {
			m := pebble.Move{Kind: kind, Node: v}
			if got := packMove(m).move(); got != m {
				t.Fatalf("packMove(%v).move() = %v", m, got)
			}
		}
	}
}

// TestStateTableReset checks that a reset table forgets its entries
// but keeps working (the IDA* memo resets once per threshold pass).
func TestStateTableReset(t *testing.T) {
	tab := newStateTable(2, payloadBestOnly, 4)
	key := []uint64{42, 7}
	ref, isNew := tab.lookupOrAdd(key, hashKey(key))
	if !isNew {
		t.Fatal("first insert not new")
	}
	tab.setBest(ref, 5)
	tab.reset()
	if tab.count() != 0 {
		t.Fatalf("count after reset = %d", tab.count())
	}
	ref2, isNew := tab.lookupOrAdd(key, hashKey(key))
	if !isNew || ref2 != 0 {
		t.Fatalf("post-reset insert = (%d, %v), want (0, true)", ref2, isNew)
	}
	if tab.best(ref2) != costUnreached {
		t.Fatalf("post-reset best = %d, want costUnreached", tab.best(ref2))
	}
}

// FuzzStateTable feeds arbitrary byte streams as key sequences through
// the table/reference pair, fuzzing the probe, tag-collision, growth
// and chunk-boundary paths. The input's bytes are keys themselves (one
// byte per word, so the fuzzer finds duplicates quickly), and they also
// seed a generator that extends the stream, mixing fresh keys of every
// magnitude with repeats at an input-chosen rate, until it holds more
// distinct keys than two full chunks of rows: every input crosses at
// least two chunk boundaries.
func FuzzStateTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kw := int(data[0])%3 + 1
		data = data[1:]
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		repeatPct := 0
		if len(data) > 0 {
			repeatPct = int(data[0]) % 50
		}
		var keys [][]uint64
		seen := map[[3]uint64]bool{}
		add := func(key []uint64) {
			keys = append(keys, key)
			seen[[3]uint64(append(key[:kw:kw], make([]uint64, 3-kw)...))] = true
		}
		for len(data) >= kw && len(keys) < 4096 {
			key := make([]uint64, kw)
			for j := 0; j < kw; j++ {
				key[j] = uint64(data[j])
			}
			data = data[kw:]
			add(key)
		}
		tab := newStateTable(kw, payloadWithH, 4)
		for perChunk := 1 << tab.rows.shift; len(seen) <= 2*perChunk; {
			if len(keys) > 0 && rng.Intn(100) < repeatPct {
				keys = append(keys, keys[rng.Intn(len(keys))])
				continue
			}
			key := make([]uint64, kw)
			for j := range key {
				key[j] = rng.Uint64() >> uint(rng.Intn(64))
			}
			add(key)
		}
		checkTableAgainstRef(t, tab, keys)
		if chunks := len(tab.rows.chunks); chunks < 3 {
			t.Fatalf("%d distinct keys fill %d chunks, want >= 3", tab.count(), chunks)
		}
	})
}
