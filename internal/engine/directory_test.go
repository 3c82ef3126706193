package engine

import (
	"fmt"
	"testing"

	"selfserv/internal/placement"
)

// TestDirectoryRouteDeterministicAcrossNodes is the scale-out
// determinism property at the Directory layer: two directories (two
// "nodes") that learned the same replica set in DIFFERENT orders route
// every (instance, tenant) key to the same replica — including after a
// directory update adds another replica.
func TestDirectoryRouteDeterministicAcrossNodes(t *testing.T) {
	pol := placement.Policy{ShardSize: 2, Dedicated: map[string]int{"visa": 1}}
	d1 := NewDirectory()
	d1.SetPolicy(pol)
	d2 := NewDirectory()
	d2.SetPolicy(pol)

	replicas := []string{"r1", "r2", "r3", "r4"}
	for _, a := range replicas { // forward order
		d1.AddReplicaV("C", 0, "s1", a)
	}
	for i := len(replicas) - 1; i >= 0; i-- { // reverse order
		d2.AddReplicaV("C", 0, "s1", replicas[i])
	}

	check := func(phase string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			inst := fmt.Sprintf("i%d", i)
			for _, tenant := range []string{"", "visa", "acme"} {
				a1, ok1 := d1.Route("C", "s1", inst, tenant)
				a2, ok2 := d2.Route("C", "s1", inst, tenant)
				if !ok1 || !ok2 || a1 != a2 {
					t.Fatalf("%s: nodes disagree on (%q,%q): %q/%v vs %q/%v",
						phase, inst, tenant, a1, ok1, a2, ok2)
				}
			}
		}
	}
	check("initial")

	// A directory update (scale-out event) must leave the nodes agreeing.
	d1.AddReplicaV("C", 0, "s1", "r5")
	d2.AddReplicaV("C", 0, "s1", "r5")
	check("after AddReplicaV")

	d1.RemoveReplicaV("C", 0, "s1", "r2")
	d2.RemoveReplicaV("C", 0, "s1", "r2")
	check("after RemoveReplicaV")
	for _, d := range []*Directory{d1, d2} {
		if got := d.Replicas("C", "s1"); len(got) != 4 {
			t.Fatalf("replicas = %v", got)
		}
	}
}

// TestDirectoryReplicaSetSemantics pins the Set/AddReplicaV/RemoveReplicaV
// contract: Set replaces with a singleton, AddReplicaV is idempotent,
// removing the last replica drops the peer, Lookup returns the
// canonical first replica.
func TestDirectoryReplicaSetSemantics(t *testing.T) {
	d := NewDirectory()
	d.AddReplicaV("C", 0, "s1", "b")
	d.AddReplicaV("C", 0, "s1", "a")
	d.AddReplicaV("C", 0, "s1", "a") // idempotent
	if got := d.Replicas("C", "s1"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("replicas = %v", got)
	}
	if addr, ok := d.Lookup("C", "s1"); !ok || addr != "a" {
		t.Fatalf("Lookup = %q, %v", addr, ok)
	}

	d.Set("C", "s1", "only")
	if got := d.Replicas("C", "s1"); len(got) != 1 || got[0] != "only" {
		t.Fatalf("after Set, replicas = %v", got)
	}

	d.RemoveReplicaV("C", 0, "s1", "only")
	if _, ok := d.Lookup("C", "s1"); ok {
		t.Fatal("peer survived removal of its last replica")
	}
	if _, ok := d.Route("C", "s1", "i1", ""); ok {
		t.Fatal("Route resolved a removed peer")
	}
}

// TestDirectorySetPolicyRebuilds pins that installing a policy after
// replicas exist re-shards the existing groups (a dedicated cell starts
// isolating immediately).
func TestDirectorySetPolicyRebuilds(t *testing.T) {
	d := NewDirectory()
	for _, a := range []string{"r1", "r2", "r3", "r4"} {
		d.AddReplicaV("C", 0, "s1", a)
	}
	d.SetPolicy(placement.Policy{Dedicated: map[string]int{"visa": 2}})

	visa := map[string]bool{}
	other := map[string]bool{}
	for i := 0; i < 100; i++ {
		inst := fmt.Sprintf("i%d", i)
		if a, ok := d.Route("C", "s1", inst, "visa"); ok {
			visa[a] = true
		}
		if a, ok := d.Route("C", "s1", inst, "acme"); ok {
			other[a] = true
		}
	}
	if len(visa) != 2 {
		t.Fatalf("visa cell spread over %d replicas, want 2", len(visa))
	}
	for a := range other {
		if visa[a] {
			t.Fatalf("non-dedicated tenant landed on visa cell replica %s", a)
		}
	}
}
