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
		{Key: "k", Value: Value{UpperScaled: 30, LowerScaled: 1, Tier: 7}},
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
	if added := c.Import([]Entry{{Key: "k", Value: Value{UpperScaled: 15, LowerScaled: 8, Tier: 7}}}); added != 1 {
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
	if added := c.Import([]Entry{{Key: "k", Value: Value{UpperScaled: 8, LowerScaled: 2, Tier: 9}}}); added != 1 {
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
	if added := c.Import([]Entry{{Key: "k", Value: Value{UpperScaled: 20, LowerScaled: 5, Tier: 7}}}); added != 0 {
		t.Fatalf("stale import accepted: added=%d", added)
	}
	// An interval entry with no tier anywhere is malformed: dropped.
	if added := c.Import([]Entry{{Key: "k2", Value: Value{UpperScaled: 9, LowerScaled: 3}}}); added != 0 {
		t.Fatalf("tierless interval accepted: added=%d", added)
	}
	// A looser interval from a lower tier than the cached one: nothing
	// new either, and the key keeps its one row at its higher tier.
	put(t, c, "k9", 9, Value{UpperScaled: 15, LowerScaled: 8})
	if added := c.Import([]Entry{{Key: "k9", Value: Value{UpperScaled: 20, LowerScaled: 5, Tier: 7}}}); added != 0 {
		t.Fatalf("lower-tier looser import accepted: added=%d", added)
	}
	var rows []Entry
	for _, e := range c.Export() {
		if e.Key == "k9" {
			rows = append(rows, e)
		}
	}
	if len(rows) != 1 || rows[0].Value.Tier != 9 || rows[0].Value.LowerScaled != 8 || rows[0].Value.UpperScaled != 15 {
		t.Fatalf("export rows for k9 = %+v, want one [8,15] at tier 9", rows)
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
		{"negative lower", Entry{Key: "k", Value: Value{UpperScaled: 9, LowerScaled: -1, Tier: 7}}},
		{"lower above upper", Entry{Key: "k", Value: Value{UpperScaled: 5, LowerScaled: 10, Tier: 7}}},
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

// TestImportRejectsContradictoryIntervals: a well-formed peer interval
// that is disjoint from the locally certified one contradicts it; the
// merge would invert the bounds and promote a bogus optimum, so it is
// rejected and counted. Touching bounds still close the interval.
func TestImportRejectsContradictoryIntervals(t *testing.T) {
	for _, tc := range []struct {
		name        string
		peer        Value
		wantOptimal bool
		wantCost    int64
	}{
		{"peer below local", Value{LowerScaled: 2, UpperScaled: 6, Tier: 7}, false, 0},
		{"peer above local", Value{LowerScaled: 16, UpperScaled: 20, Tier: 7}, false, 0},
		{"peer touching local upper", Value{LowerScaled: 15, UpperScaled: 20, Tier: 7}, true, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(8)
			put(t, c, "k", 7, Value{LowerScaled: 8, UpperScaled: 15})
			added := c.Import([]Entry{{Key: "k", Value: tc.peer}})
			st := c.Stats()
			v, hit, _, _, _ := c.Do(context.Background(), "k", 1, func(*Value) (Value, error) {
				t.Fatal("the key must still be served from the cache")
				return Value{}, nil
			})
			if !hit {
				t.Fatal("cached key missed")
			}
			if !tc.wantOptimal {
				if added != 0 || st.ImportRejected != 1 || st.Imported != 0 || st.Entries != 0 {
					t.Fatalf("contradictory interval accepted: added=%d stats=%+v", added, st)
				}
				if v.Optimal || v.LowerScaled != 8 || v.UpperScaled != 15 {
					t.Fatalf("cached value = %+v, want the local [8, 15] still open", v)
				}
				return
			}
			if added != 1 || st.ImportRejected != 0 || st.Entries != 1 || st.IntervalEntries != 0 {
				t.Fatalf("closing interval not promoted: added=%d stats=%+v", added, st)
			}
			if !v.Optimal || v.LowerScaled != tc.wantCost || v.UpperScaled != tc.wantCost {
				t.Fatalf("cached value = %+v, want optimal at %d", v, tc.wantCost)
			}
		})
	}
}

// TestFlightStoreKeepsMidFlightImports: a flight merges its result with
// what the cache holds when it stores, not with the snapshot it
// warm-started from, so a certificate imported while it ran survives.
func TestFlightStoreKeepsMidFlightImports(t *testing.T) {
	for _, tc := range []struct {
		name       string
		imported   Entry
		wantLower  int64
		wantUpper  int64
		wantOpt    bool
		wantIntvl  int    // interval entries left for the key
		wantTights uint64 // the import's own tightening only
	}{
		{"tighter interval", Entry{Key: "k", Value: Value{LowerScaled: 14, UpperScaled: 30, Tier: 5}}, 14, 30, false, 1, 1},
		{"proven optimum", Entry{Key: "k", Value: Value{LowerScaled: 20, UpperScaled: 20, Optimal: true}}, 20, 20, true, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(8)
			put(t, c, "k", 5, Value{LowerScaled: 10, UpperScaled: 30, Tier: 5})
			v, _, _, _, err := c.Do(context.Background(), "k", 5, func(*Value) (Value, error) {
				if c.Import([]Entry{tc.imported}) != 1 {
					t.Fatal("import carried no new information")
				}
				return Value{LowerScaled: 12, UpperScaled: 31, Tier: 5}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if v.LowerScaled != tc.wantLower || v.UpperScaled != tc.wantUpper || v.Optimal != tc.wantOpt {
				t.Errorf("served [%d,%d] optimal=%v, want [%d,%d] optimal=%v",
					v.LowerScaled, v.UpperScaled, v.Optimal, tc.wantLower, tc.wantUpper, tc.wantOpt)
			}
			st := c.Stats()
			if st.IntervalEntries != tc.wantIntvl || st.Tightenings != tc.wantTights {
				t.Errorf("interval entries %d, tightenings %d; want %d, %d",
					st.IntervalEntries, st.Tightenings, tc.wantIntvl, tc.wantTights)
			}
			if got, ok := c.Probe("k", 1); !ok || got.LowerScaled != tc.wantLower || got.UpperScaled != tc.wantUpper {
				t.Errorf("stored [%d,%d] (found=%v), want [%d,%d]",
					got.LowerScaled, got.UpperScaled, ok, tc.wantLower, tc.wantUpper)
			}
		})
	}
}
