package cluster

import (
	"testing"
	"time"
)

// row returns member's slot in the table view.
func row(ms *Membership, member string) (MemberView, bool) {
	for _, v := range ms.View() {
		if v.Member == member {
			return v, true
		}
	}
	return MemberView{}, false
}

// healthy reports whether member is in the table and up.
func healthy(ms *Membership, member string) bool {
	v, ok := row(ms, member)
	return ok && v.Healthy
}

func TestMembershipJoinRenewExpire(t *testing.T) {
	ms := NewMembership(time.Second)
	clock := time.Now()
	ms.now = func() time.Time { return clock }

	ms.Join("a:1", false)
	if v, _ := row(ms, "a:1"); ms.Size() != 1 || !v.Healthy {
		t.Fatal("join should register the member up")
	}

	// Renewal inside the lease extends it.
	clock = clock.Add(800 * time.Millisecond)
	ms.Join("a:1", false)
	clock = clock.Add(800 * time.Millisecond) // 1.6s after first join, 0.8s after renewal
	if dead := ms.Sweep(); len(dead) != 0 {
		t.Fatalf("renewed member expired: %v", dead)
	}

	// Lease lapse expires it out of the table.
	clock = clock.Add(2 * time.Second)
	if dead := ms.Sweep(); len(dead) != 1 || dead[0] != "a:1" {
		t.Fatalf("Sweep = %v, want [a:1]", dead)
	}
	if ms.Size() != 0 {
		t.Fatal("expired member should be deregistered")
	}
	if _, ok := row(ms, "a:1"); ok {
		t.Fatal("expired member should leave the table")
	}
	joins, leaves, expired := ms.Counters()
	if joins != 1 || leaves != 0 || expired != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1/0/1", joins, leaves, expired)
	}
}

func TestMembershipStaticNeverExpires(t *testing.T) {
	ms := NewMembership(time.Second)
	clock := time.Now()
	ms.now = func() time.Time { return clock }

	ms.AddStatic("s:1")
	clock = clock.Add(time.Hour)
	if dead := ms.Sweep(); len(dead) != 0 {
		t.Fatalf("static member expired: %v", dead)
	}
	if v, _ := row(ms, "s:1"); !v.Healthy {
		t.Fatal("static member should stay up in the table")
	}
}

func TestMembershipDrainingLifecycle(t *testing.T) {
	ms := NewMembership(time.Minute)

	ms.Join("a:1", false)
	ms.Join("b:2", false)
	if v, _ := row(ms, "a:1"); !v.Healthy {
		t.Fatal("joined member should be healthy")
	}

	// Drain announcement demotes immediately.
	ms.Join("a:1", true)
	a, _ := row(ms, "a:1")
	b, _ := row(ms, "b:2")
	if a.Healthy {
		t.Fatal("draining member should be demoted")
	}
	if !a.Draining || b.Draining {
		t.Fatal("draining flags wrong")
	}

	// A restarted node re-joining un-drained is promoted back before the
	// next probe cycle.
	ms.Join("a:1", false)
	if a, _ = row(ms, "a:1"); !a.Healthy {
		t.Fatal("re-joined member should be healthy again")
	}
	if a.Draining {
		t.Fatal("re-join should clear the draining flag")
	}
}

func TestMembershipLeave(t *testing.T) {
	ms := NewMembership(time.Minute)
	ms.Join("a:1", false)
	ms.Leave("a:1")
	if ms.Size() != 0 {
		t.Fatal("left member should be deregistered")
	}
	if _, ok := row(ms, "a:1"); ok {
		t.Fatal("left member should be out of the table")
	}
	_, leaves, _ := ms.Counters()
	if leaves != 1 {
		t.Fatalf("leaves = %d, want 1", leaves)
	}
}
