package instcache

import (
	"context"
	"fmt"
	"testing"
)

// fuzzOpt is the hidden optimum of each fuzzed key: every generated
// certificate is sound for it, so every row the cache ever holds must
// contain it.
var fuzzOpt = [3]int64{10, 17, 24}

// fuzzStep decodes one 4-byte step of FuzzCacheSequences: a local
// flight store (possibly credited a demoted tier, possibly closing the
// bounds) or an Import (a sound interval, a tierless one, a proven
// optimum, or an impossible certificate).
func fuzzStep(c *Cache, b [4]byte) (key string, imported, added bool) {
	k := int(b[0]/4) % 3
	key = fmt.Sprintf("k%d", k)
	opt := fuzzOpt[k]
	a, d := int64(b[1]%8), int64(b[2]%8)
	v := Value{LowerScaled: opt - a, UpperScaled: opt + d}
	tier := 1 + int(b[3]%12)
	mode := (b[3] / 12) % 3
	switch b[0] % 4 {
	case 0, 1:
		v.Optimal = b[0]%4 == 0 && a == 0 && d == 0
		switch mode {
		case 1:
			v.Tier = max(1, tier-3) // a solve canceled early
		case 2:
			v.Tier = tier
		}
		c.Do(context.Background(), key, tier, func(*Value) (Value, error) { return v, nil })
		return key, false, false
	case 2:
		if mode != 0 {
			v.Tier = tier
		}
	default:
		switch mode {
		case 0:
			v = Value{LowerScaled: opt, UpperScaled: opt, Optimal: true}
		case 1:
			v.LowerScaled = v.UpperScaled + 1 + a
			v.Tier = tier
		default:
			v.LowerScaled--
			v.Optimal = true
		}
	}
	return key, true, c.Import([]Entry{{Key: key, Value: v}}) == 1
}

// FuzzCacheSequences drives random sequences of flight stores and
// imports over three keys through a small cache and checks, after each
// step, that the cache holds at most one sound entry per key, that a
// cached key's interval never widens and its tier never drops, that a
// proven entry is never replaced, and that an import counts as added
// exactly when it changed the key's entry.
func FuzzCacheSequences(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{4, 3, 3, 8, 4, 1, 1, 9, 4, 0, 0, 8}, // k1 tightens to closed at tier 9
		{0, 2, 5, 20, 0, 1, 1, 3, 2, 3, 7, 6, 2, 7, 7, 5}, // k0 stores, a demoted store, imports
		{2, 6, 6, 9, 2, 1, 1, 9, 6, 6, 6, 30, 3, 0, 0, 0}, // tierless and looser imports, an optimum
		{3, 1, 1, 12, 3, 1, 1, 24, 7, 4, 4, 12, 11, 4, 4, 24},
		{1, 5, 5, 11, 5, 5, 5, 11, 9, 5, 5, 11, 13, 4, 4, 11, 1, 0, 0, 11}, // eviction at max 2
		{0, 0, 0, 4, 1, 3, 3, 40, 2, 2, 2, 16, 3, 0, 0, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(2)
		prev := map[string]Value{}
		for i := 0; i+4 <= len(data); i += 4 {
			key, imported, added := fuzzStep(c, [4]byte(data[i:i+4]))
			rows := c.Export()
			now := map[string]Value{}
			for _, e := range rows {
				if _, dup := now[e.Key]; dup {
					t.Fatalf("step %d: two rows for %s in %+v", i/4, e.Key, rows)
				}
				now[e.Key] = e.Value
				v := e.Value
				var k int
				fmt.Sscanf(e.Key, "k%d", &k)
				if v.LowerScaled > v.UpperScaled || v.LowerScaled > fuzzOpt[k] || v.UpperScaled < fuzzOpt[k] {
					t.Fatalf("step %d: %s holds [%d,%d], optimum %d", i/4, e.Key, v.LowerScaled, v.UpperScaled, fuzzOpt[k])
				}
				if v.Optimal != (v.Tier == 0) || (v.Optimal && v.LowerScaled != v.UpperScaled) {
					t.Fatalf("step %d: %s holds malformed %+v", i/4, e.Key, v)
				}
				old, was := prev[e.Key]
				switch {
				case !was:
				case old.Optimal && (!v.Optimal || v.UpperScaled != old.UpperScaled):
					t.Fatalf("step %d: proven %s replaced: %+v -> %+v", i/4, e.Key, old, v)
				case v.LowerScaled < old.LowerScaled || v.UpperScaled > old.UpperScaled:
					t.Fatalf("step %d: %s widened [%d,%d] -> [%d,%d]", i/4, e.Key,
						old.LowerScaled, old.UpperScaled, v.LowerScaled, v.UpperScaled)
				case !v.Optimal && v.Tier < old.Tier:
					t.Fatalf("step %d: %s tier dropped %d -> %d", i/4, e.Key, old.Tier, v.Tier)
				}
			}
			if st := c.Stats(); st.Entries+st.IntervalEntries != len(rows) {
				t.Fatalf("step %d: stats count %d+%d entries, export %d", i/4, st.Entries, st.IntervalEntries, len(rows))
			}
			if imported {
				old, was := prev[key]
				v, is := now[key]
				changed := was != is || old.LowerScaled != v.LowerScaled || old.UpperScaled != v.UpperScaled ||
					old.Tier != v.Tier || old.Optimal != v.Optimal
				if added != changed {
					t.Fatalf("step %d: import of %s added=%v but entry changed=%v (%+v -> %+v)", i/4, key, added, changed, old, v)
				}
			}
			prev = now
		}
	})
}
