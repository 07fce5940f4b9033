package cluster

import (
	"sort"
	"sync"
	"time"
)

// defaultMemberTTL is the dynamic-member lease: a node that has not
// renewed its registration within the TTL is considered dead and is
// removed from the table (its keys remap to the survivors). Nodes renew
// at TTL/3, so a member survives two dropped heartbeats.
const defaultMemberTTL = 15 * time.Second

// memberInfo is one member's row in the table.
type memberInfo struct {
	static   bool      // seeded by the -members flag: never expires
	draining bool      // announced SIGTERM drain: skip as a handoff/replica target
	down     bool      // failed a probe or a forward; new members start up
	expires  time.Time // dynamic members only: lease end
}

// routable reports whether the member may own keys: up and not
// draining. A draining member is skipped as a handoff and replication
// target too: pushing cache entries to a node that is itself about to
// hand off would bounce them around the fleet.
func (in *memberInfo) routable() bool { return !in.down && !in.draining }

// Membership is the cluster's one per-member table: lease, static,
// draining and up/down. rbserve nodes register and renew leases
// through the proxy's /cluster/join API, announce draining during
// their SIGTERM grace, and are expired when their lease lapses (the
// TTL is what distinguishes a *dead* node from a merely *draining*
// one). Static members — the -members flag — never expire; the health
// prober alone governs their routing. The prober, failed forwards and
// opening breakers write up/down here; placement (Owners) and every
// fan-out read it. Safe for concurrent use.
type Membership struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time // test seam
	members map[string]*memberInfo

	joins, leaves, expired uint64
}

// NewMembership returns an empty table with the given dynamic lease
// TTL (> 0).
func NewMembership(ttl time.Duration) *Membership {
	return &Membership{ttl: ttl, now: time.Now, members: make(map[string]*memberInfo)}
}

// TTL returns the dynamic-member lease duration (the join API reports
// it to nodes so they can pick a renewal cadence).
func (ms *Membership) TTL() time.Duration { return ms.ttl }

// AddStatic seeds members that never expire (the -members flag).
func (ms *Membership) AddStatic(members ...string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, m := range members {
		if ms.members[m] == nil {
			ms.members[m] = &memberInfo{}
		}
		ms.members[m].static = true
	}
}

// Join registers or renews member's lease and records its draining
// flag. A new member starts up (rendezvous placement: only the keys it
// now owns move); a renewal just extends the lease. A drain
// announcement demotes the member at once, and a member re-joining
// with draining=false (e.g. a restarted node reusing its address) is
// promoted back up so it receives traffic before the next probe cycle.
func (ms *Membership) Join(member string, draining bool) {
	now := ms.now()
	ms.mu.Lock()
	in := ms.members[member]
	if in == nil {
		in = &memberInfo{}
		ms.members[member] = in
		ms.joins++
	}
	if draining {
		in.down = true
	} else if in.draining {
		in.down = false
	}
	in.draining = draining
	if !in.static {
		in.expires = now.Add(ms.ttl)
	}
	ms.mu.Unlock()
}

// Leave deregisters member immediately (the graceful exit: the node
// already handed its cache off). Static members are removed too — a
// statically-seeded node that says goodbye is gone until it rejoins.
func (ms *Membership) Leave(member string) {
	ms.mu.Lock()
	if _, ok := ms.members[member]; ok {
		ms.leaves++
	}
	delete(ms.members, member)
	ms.mu.Unlock()
}

// SetStatus records member's up/down and draining state (a probe
// verdict, or a handoff received from it) without touching its lease.
// A draining member is down. Unknown members are ignored.
func (ms *Membership) SetStatus(member string, up, draining bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if in := ms.members[member]; in != nil {
		in.down, in.draining = !up || draining, draining
	}
}

// Demote marks member down (a failed forward or an opening breaker):
// it ranks last until a probe or a re-join brings it back up. Unknown
// members are ignored.
func (ms *Membership) Demote(member string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if in := ms.members[member]; in != nil {
		in.down = true
	}
}

// Sweep expires dynamic members whose lease has lapsed, removing them
// from the table, and returns them. A TTL expiry is the "dead node"
// signal: no graceful drain happened, so the proxy's only consolation
// is whatever proven-optimal entries were replicated ahead of time.
func (ms *Membership) Sweep() []string {
	now := ms.now()
	var dead []string
	ms.mu.Lock()
	for m, in := range ms.members {
		if !in.static && now.After(in.expires) {
			dead = append(dead, m)
			delete(ms.members, m)
			ms.expired++
		}
	}
	ms.mu.Unlock()
	sort.Strings(dead)
	return dead
}

// Routable lists, sorted, the members that may own keys: up and not
// draining. The fan-outs ask them, and the join response hands them to
// the nodes' ownership mirrors.
func (ms *Membership) Routable() []string {
	ms.mu.Lock()
	var out []string
	for m, in := range ms.members {
		if in.routable() {
			out = append(out, m)
		}
	}
	ms.mu.Unlock()
	sort.Strings(out)
	return out
}

// Owners returns every member in routing preference order for key:
// the routable members by rendezvous weight, then the rest by
// rendezvous weight, so a request with nowhere better to go can still
// try a member that is down as a last resort.
func (ms *Membership) Owners(key string) []string {
	var up, down []string
	ms.mu.Lock()
	for m, in := range ms.members {
		if in.routable() {
			up = append(up, m)
		} else {
			down = append(down, m)
		}
	}
	ms.mu.Unlock()
	return append(Owners(key, up), Owners(key, down)...)
}

// Size returns the number of registered members (static + live
// dynamic), the cluster_membership_size gauge.
func (ms *Membership) Size() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return len(ms.members)
}

// Counters returns the monotone join/leave/expiry totals.
func (ms *Membership) Counters() (joins, leaves, expired uint64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.joins, ms.leaves, ms.expired
}

// MemberView is one member's slot in the GET /cluster/members view.
type MemberView struct {
	Member   string `json:"member"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	Static   bool   `json:"static"`
	// TTLRemainingMS is the dynamic lease remainder (0 for static).
	TTLRemainingMS int64 `json:"ttl_remaining_ms,omitempty"`
}

// View snapshots the table, sorted by member.
func (ms *Membership) View() []MemberView {
	now := ms.now()
	ms.mu.Lock()
	out := make([]MemberView, 0, len(ms.members))
	for m, in := range ms.members {
		v := MemberView{Member: m, Healthy: !in.down, Draining: in.draining, Static: in.static}
		if !in.static {
			if rem := in.expires.Sub(now); rem > 0 {
				v.TTLRemainingMS = rem.Milliseconds()
			}
		}
		out = append(out, v)
	}
	ms.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}
