// Package cluster shards rbserve across hosts: rendezvous hashing
// routes each solve to the replica that owns its canonical instance
// key, so repeated and isomorphic submissions of the same instance
// land on the same node's cache and warm-start each other, while the
// rest of the fleet stays free for other instances. The package
// provides the placement function (Owners), the member table
// (Membership: leases, drain state, up/down), a health prober that
// writes into it, and the HTTP routing proxy served by cmd/rbproxy.
package cluster

import "sort"

// hashString is FNV-1a over s with a splitmix64 finalizer — stable
// across processes (no per-run seeding), which a routing layer needs:
// every proxy replica must agree on the owner of a key. The finalizer
// matters: bare FNV-1a barely diffuses the last bytes into the high
// bits on short inputs, which collapses the rendezvous weights of
// similar member names to a fixed member order.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// rendezvous scores member for key: the highest-random-weight (HRW)
// weight that orders a key's owners.
func rendezvous(member, key string) uint64 {
	return hashString(member + "\x00" + key)
}

// Owners returns members in routing preference order for key: highest
// rendezvous weight first (equal weights by name). Keys are canonical
// instance keys (instcache.Instance.Key), so placement inherits their
// isomorphism invariance: relabeled copies of a DAG route to the same
// member. The order depends only on the key and the member set, never
// on the input order, so every proxy replica and every node's mirror
// agree; removing a member moves only the keys it owned.
func Owners(key string, members []string) []string {
	type weighted struct {
		w uint64
		m string
	}
	ws := make([]weighted, len(members))
	for i, m := range members {
		ws[i] = weighted{rendezvous(m, key), m}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].w != ws[j].w {
			return ws[i].w > ws[j].w
		}
		return ws[i].m < ws[j].m
	})
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.m
	}
	return out
}
