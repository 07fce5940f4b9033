package instcache

import (
	"context"
	"encoding/json"
	"testing"

	"rbpebble/internal/pebble"
)

func put(t *testing.T, c *Cache, key string, tier int, v Value) {
	t.Helper()
	_, _, _, _, err := c.Do(context.Background(), key, tier, func(*Value) (Value, error) { return v, nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestExportImportRoundTrip: a cache export, serialized through its
// JSON wire form, rebuilds equivalent serving behavior on another node.
func TestExportImportRoundTrip(t *testing.T) {
	src := New(8)
	put(t, src, "opt", 5, Value{
		Moves:       []pebble.Move{{Kind: pebble.Compute, Node: 0}},
		UpperScaled: 7, LowerScaled: 7, Optimal: true, Source: "astar",
	})
	put(t, src, "iv", 7, Value{UpperScaled: 20, LowerScaled: 5, Source: "astar"})

	exported := src.Export()
	if len(exported) != 2 {
		t.Fatalf("exported %d entries, want 2", len(exported))
	}
	// The wire format must survive JSON (this is what travels between
	// nodes on handoff/replication).
	raw, err := json.Marshal(exported)
	if err != nil {
		t.Fatal(err)
	}
	var wire []Entry
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}

	dst := New(8)
	if added := dst.Import(wire); added != 2 {
		t.Fatalf("imported %d, want 2", added)
	}
	if st := dst.Stats(); st.Imported != 2 || st.Entries != 1 || st.IntervalEntries != 1 {
		t.Fatalf("stats after import: %+v", st)
	}

	// The optimum serves as a hit with its moves intact.
	v, hit, _, _, err := dst.Do(context.Background(), "opt", 1, func(*Value) (Value, error) {
		t.Fatal("imported optimum must not re-solve")
		return Value{}, nil
	})
	if err != nil || !hit || !v.Optimal || len(v.Moves) != 1 || v.Moves[0].Node != 0 {
		t.Fatalf("imported optimum serve: v=%+v hit=%v err=%v", v, hit, err)
	}
	// The interval warm-starts a same-tier refinement.
	_, _, _, warmed, err := dst.Do(context.Background(), "iv", 7, func(warm *Value) (Value, error) {
		if warm == nil || warm.UpperScaled != 20 || warm.LowerScaled != 5 {
			t.Fatalf("warm = %+v, want imported [5, 20]", warm)
		}
		return Value{UpperScaled: 18, LowerScaled: 6}, nil
	})
	if err != nil || !warmed {
		t.Fatalf("imported interval should warm-start: warmed=%v err=%v", warmed, err)
	}
}

func TestImportSkipsAlreadyProven(t *testing.T) {
	c := New(8)
	put(t, c, "k", 5, Value{UpperScaled: 7, LowerScaled: 7, Optimal: true})
	added := c.Import([]Entry{
		{Key: "k", Tier: 7, Value: Value{UpperScaled: 30, LowerScaled: 1, Tier: 7}},
		{Key: "k", Value: Value{UpperScaled: 7, LowerScaled: 7, Optimal: true}},
	})
	if added != 0 {
		t.Fatalf("imported %d entries for a proven key, want 0", added)
	}
	if st := c.Stats(); st.IntervalEntries != 0 || st.Imported != 0 {
		t.Fatalf("proven key polluted: %+v", st)
	}
}

func TestImportMergesAndPromotes(t *testing.T) {
	c := New(8)
	put(t, c, "k", 7, Value{UpperScaled: 20, LowerScaled: 5})

	// A tighter remote interval merges in (the interval only tightens).
	if added := c.Import([]Entry{{Key: "k", Tier: 7, Value: Value{UpperScaled: 15, LowerScaled: 8}}}); added != 1 {
		t.Fatalf("tighter import rejected: added=%d", added)
	}
	v, hit, _, _, _ := c.Do(context.Background(), "k", 3, func(*Value) (Value, error) {
		t.Fatal("lower tier must be served the stored interval")
		return Value{}, nil
	})
	if !hit || v.LowerScaled != 8 || v.UpperScaled != 15 {
		t.Fatalf("merged interval = [%d, %d], want [8, 15]", v.LowerScaled, v.UpperScaled)
	}

	// A remote interval whose merge closes the bounds promotes to the
	// optimal segment.
	if added := c.Import([]Entry{{Key: "k", Tier: 9, Value: Value{UpperScaled: 8, LowerScaled: 2}}}); added != 1 {
		t.Fatal("closing import rejected")
	}
	st := c.Stats()
	if st.Entries != 1 || st.IntervalEntries != 0 {
		t.Fatalf("closing import should promote and drop intervals: %+v", st)
	}
	v, hit, _, _, _ = c.Do(context.Background(), "k", 1, func(*Value) (Value, error) { return Value{}, nil })
	if !hit || !v.Optimal || v.UpperScaled != 8 {
		t.Fatalf("promoted value = %+v hit=%v", v, hit)
	}
}

func TestImportSkipsStaleInformation(t *testing.T) {
	c := New(8)
	put(t, c, "k", 7, Value{UpperScaled: 15, LowerScaled: 8})

	// Same tier, looser bounds: carries nothing new.
	if added := c.Import([]Entry{{Key: "k", Tier: 7, Value: Value{UpperScaled: 20, LowerScaled: 5}}}); added != 0 {
		t.Fatalf("stale import accepted: added=%d", added)
	}
	// An interval entry with no tier anywhere is malformed: dropped.
	if added := c.Import([]Entry{{Key: "k2", Value: Value{UpperScaled: 9, LowerScaled: 3}}}); added != 0 {
		t.Fatalf("tierless interval accepted: added=%d", added)
	}
	if st := c.Stats(); st.Imported != 0 {
		t.Fatalf("Imported counter moved on rejected entries: %+v", st)
	}
}

func TestImportOptimalDropsObsoleteIntervals(t *testing.T) {
	c := New(8)
	put(t, c, "k", 7, Value{UpperScaled: 20, LowerScaled: 5})
	if added := c.Import([]Entry{{Key: "k", Value: Value{UpperScaled: 9, LowerScaled: 9, Optimal: true}}}); added != 1 {
		t.Fatal("optimal import rejected")
	}
	st := c.Stats()
	if st.Entries != 1 || st.IntervalEntries != 0 {
		t.Fatalf("optimal import should drop the key's intervals: %+v", st)
	}
}

// TestImportRejectsImpossibleCertificates: peer entries whose bounds
// cannot be a certificate are dropped and counted, never installed —
// in particular an inverted interval must not be promoted to optimal.
func TestImportRejectsImpossibleCertificates(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    Entry
	}{
		{"negative lower", Entry{Key: "k", Tier: 7, Value: Value{UpperScaled: 9, LowerScaled: -1}}},
		{"lower above upper", Entry{Key: "k", Tier: 7, Value: Value{UpperScaled: 5, LowerScaled: 10}}},
		{"optimal with unequal bounds", Entry{Key: "k", Value: Value{UpperScaled: 9, LowerScaled: 3, Optimal: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(8)
			if added := c.Import([]Entry{tc.e}); added != 0 {
				t.Fatalf("impossible entry accepted: added=%d", added)
			}
			st := c.Stats()
			if st.ImportRejected != 1 || st.Imported != 0 || st.Entries != 0 || st.IntervalEntries != 0 {
				t.Fatalf("stats after rejected import: %+v", st)
			}
		})
	}
}
