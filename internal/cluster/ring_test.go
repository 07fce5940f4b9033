package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%d", i)
	}
	return out
}

// TestOwnersCompleteAndDeterministic: Owners lists every member
// exactly once, in an order that is stable across calls and across
// member lists given in different orders (proxy replicas must agree).
func TestOwnersCompleteAndDeterministic(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1"}
	shuffled := []string{"d:1", "b:1", "a:1", "c:1"}
	for _, k := range keys(200) {
		o1 := Owners(k, members)
		if len(o1) != len(members) {
			t.Fatalf("owners(%s) = %v, want all %d members", k, o1, len(members))
		}
		seen := map[string]bool{}
		for _, m := range o1 {
			if seen[m] {
				t.Fatalf("duplicate owner %s for %s", m, k)
			}
			seen[m] = true
		}
		if o2 := Owners(k, shuffled); !reflect.DeepEqual(o1, o2) {
			t.Fatalf("add order changed routing for %s: %v vs %v", k, o1, o2)
		}
		if o1b := Owners(k, members); !reflect.DeepEqual(o1, o1b) {
			t.Fatalf("owners not stable for %s", k)
		}
	}
}

// TestConsistentRemapping is the consistent-hashing property: removing
// one member only remaps the keys it owned.
func TestConsistentRemapping(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	before := map[string]string{}
	for _, k := range keys(2000) {
		before[k] = Owners(k, members)[0]
	}
	rest := slices.DeleteFunc(slices.Clone(members), func(m string) bool { return m == "c:1" })
	moved := 0
	for k, owner := range before {
		now := Owners(k, rest)[0]
		if owner == "c:1" {
			if now == "c:1" {
				t.Fatalf("removed member still owns %s", k)
			}
			moved++
			continue
		}
		if now != owner {
			t.Fatalf("key %s not owned by removed member moved %s -> %s", k, owner, now)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys (degenerate placement)")
	}
}

// TestBalance: rendezvous weights keep the load split roughly even.
func TestBalance(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1"}
	counts := map[string]int{}
	const n = 9000
	for _, k := range keys(n) {
		counts[Owners(k, members)[0]]++
	}
	for m, c := range counts {
		if c < n/10 {
			t.Fatalf("member %s owns only %d/%d keys: imbalanced placement (%v)", m, c, n, counts)
		}
	}
}

// TestUnhealthyMembersRankLast: a down member never leads the owner
// list while anyone is up, but remains a last-resort candidate.
func TestUnhealthyMembersRankLast(t *testing.T) {
	ms := NewMembership(time.Minute)
	ms.AddStatic("a:1", "b:1", "c:1")
	ms.Demote("b:1")
	for _, k := range keys(300) {
		owners := ms.Owners(k)
		if owners[0] == "b:1" || owners[1] == "b:1" {
			t.Fatalf("down member ranked %v for %s", owners, k)
		}
		if owners[2] != "b:1" {
			t.Fatalf("down member missing from owner list for %s: %v", k, owners)
		}
	}
	// All down: the table still yields a routing order.
	ms.Demote("a:1")
	ms.Demote("c:1")
	if owners := ms.Owners("k"); len(owners) != 3 {
		t.Fatalf("all-down table returned %v", owners)
	}
}
