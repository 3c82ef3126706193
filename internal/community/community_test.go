package community

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"selfserv/internal/service"
)

func hotel(name string, opts service.SimulatedOptions) *service.Simulated {
	return service.NewAccommodationBooking(name, opts)
}

func member(name string, cost float64, opts service.SimulatedOptions) *Member {
	return &Member{Provider: hotel(name, opts), Cost: cost}
}

func TestJoinLeaveMembers(t *testing.T) {
	c := New("AccommodationBooking", Options{})
	if err := c.Join(member("HotelA", 1, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(member("HotelB", 2, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	got := c.Members()
	if len(got) != 2 || got[0] != "HotelA" || got[1] != "HotelB" {
		t.Fatalf("Members = %v", got)
	}
	c.Leave("HotelA")
	if got := c.Members(); len(got) != 1 || got[0] != "HotelB" {
		t.Fatalf("Members after Leave = %v", got)
	}
	if err := c.Join(nil); err == nil {
		t.Fatal("Join(nil) succeeded")
	}
	if err := c.Join(&Member{Provider: hotel("X", service.SimulatedOptions{}), Predicate: "((("}); err == nil {
		t.Fatal("Join with bad predicate succeeded")
	}
}

// TestPredicateCompiledAtJoin: Join rejects a predicate that does not
// parse, and a joined member's predicate sees request parameters under
// "req.", attributes by bare name, and the expression built-ins.
func TestPredicateCompiledAtJoin(t *testing.T) {
	c := New("AccommodationBooking", Options{})
	for _, bad := range []string{"(((", "city = ", "req.dest ="} {
		m := member("Bad", 1, service.SimulatedOptions{})
		m.Predicate = bad
		if err := c.Join(m); err == nil {
			t.Errorf("Join with predicate %q succeeded", bad)
		}
	}
	if got := c.Members(); len(got) != 0 {
		t.Fatalf("rejected members joined: %v", got)
	}

	m := member("Harbour", 1, service.SimulatedOptions{})
	m.Attributes = map[string]string{"city": "sydney", "stars": "4"}
	m.Predicate = "prefix(req.dest, city) and number(req.stars) <= stars"
	if err := c.Join(m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		params map[string]string
		want   bool
	}{
		{map[string]string{"dest": "sydney-cbd", "stars": "3"}, true},
		{map[string]string{"dest": "sydney", "stars": "5"}, false},
		{map[string]string{"dest": "tokyo", "stars": "3"}, false},
	} {
		got, err := m.eligible(service.Request{Params: tc.params})
		if err != nil || got != tc.want {
			t.Errorf("eligible(%v) = %v, %v; want %v", tc.params, got, err, tc.want)
		}
	}
	// A parameter the predicate needs but the request lacks is an
	// evaluation error, which disqualifies the member for that request.
	if _, err := m.eligible(service.Request{Params: map[string]string{"dest": "sydney"}}); err == nil {
		t.Error("eligible without req.stars succeeded, want error")
	}
}

func TestInvokeDelegates(t *testing.T) {
	c := New("AccommodationBooking", Options{})
	if err := c.Join(member("HotelA", 1, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Invoke(context.Background(), service.Request{
		Service: "AccommodationBooking", Operation: "book",
		Params: map[string]string{"customer": "alice", "dest": "sydney"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outputs["addr"] != "HotelA sydney" {
		t.Fatalf("addr = %q", resp.Outputs["addr"])
	}
	// Provider interface conformance.
	var _ service.Provider = c
	if c.Name() != "AccommodationBooking" {
		t.Fatal("Name wrong")
	}
	if ops := c.Operations(); len(ops) != 1 || ops[0] != "book" {
		t.Fatalf("Operations = %v", ops)
	}
}

func TestNoMember(t *testing.T) {
	c := New("Empty", Options{})
	_, err := c.Invoke(context.Background(), service.Request{Operation: "book"})
	if !errors.Is(err, ErrNoMember) {
		t.Fatalf("err = %v", err)
	}
}

func TestPredicateFiltering(t *testing.T) {
	c := New("AccommodationBooking", Options{})
	sydney := member("SydneyHotel", 1, service.SimulatedOptions{})
	sydney.Attributes = map[string]string{"city": "sydney"}
	sydney.Predicate = "city = req.dest"
	tokyo := member("TokyoHotel", 1, service.SimulatedOptions{})
	tokyo.Attributes = map[string]string{"city": "tokyo"}
	tokyo.Predicate = "city = req.dest"
	if err := c.Join(sydney); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(tokyo); err != nil {
		t.Fatal(err)
	}
	for dest, wantAddr := range map[string]string{
		"sydney": "SydneyHotel sydney",
		"tokyo":  "TokyoHotel tokyo",
	} {
		resp, err := c.Invoke(context.Background(), service.Request{
			Operation: "book",
			Params:    map[string]string{"customer": "x", "dest": dest},
		})
		if err != nil {
			t.Fatalf("dest %s: %v", dest, err)
		}
		if resp.Outputs["addr"] != wantAddr {
			t.Fatalf("dest %s addr = %q", dest, resp.Outputs["addr"])
		}
	}
	// No member matches.
	_, err := c.Invoke(context.Background(), service.Request{
		Operation: "book", Params: map[string]string{"dest": "mars"},
	})
	if !errors.Is(err, ErrNoMember) {
		t.Fatalf("mars err = %v", err)
	}
}

func TestRoundRobinRotation(t *testing.T) {
	c := New("C", Options{Policy: NewRoundRobin()})
	for _, n := range []string{"A", "B", "C3"} {
		if err := c.Join(member(n, 1, service.SimulatedOptions{})); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		resp, err := c.Invoke(context.Background(), service.Request{
			Operation: "book", Params: map[string]string{"dest": "d"},
		})
		if err != nil {
			t.Fatal(err)
		}
		brand := strings.Fields(resp.Outputs["addr"])[0]
		seen[brand]++
	}
	for _, n := range []string{"A", "B", "C3"} {
		if seen[n] != 3 {
			t.Fatalf("round-robin distribution = %v", seen)
		}
	}
}

func TestRandomPolicyCoversMembers(t *testing.T) {
	c := New("C", Options{Policy: NewRandom(5)})
	for _, n := range []string{"A", "B"} {
		if err := c.Join(member(n, 1, service.SimulatedOptions{})); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		resp, err := c.Invoke(context.Background(), service.Request{
			Operation: "book", Params: map[string]string{"dest": "d"},
		})
		if err != nil {
			t.Fatal(err)
		}
		seen[strings.Fields(resp.Outputs["addr"])[0]] = true
	}
	if !seen["A"] || !seen["B"] {
		t.Fatalf("random policy never chose some member: %v", seen)
	}
}

func TestQoSPolicyAvoidsSlowMember(t *testing.T) {
	c := New("C", Options{Policy: NewQoS(Weights{})})
	fast := member("Fast", 1, service.SimulatedOptions{BaseLatency: time.Millisecond})
	slow := member("Slow", 1, service.SimulatedOptions{BaseLatency: 60 * time.Millisecond})
	if err := c.Join(fast); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(slow); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 30; i++ {
		resp, err := c.Invoke(context.Background(), service.Request{
			Operation: "book", Params: map[string]string{"dest": "d"},
		})
		if err != nil {
			t.Fatal(err)
		}
		counts[strings.Fields(resp.Outputs["addr"])[0]]++
	}
	// Fresh members tie (optimistic start, Fast wins by name order); after
	// the first samples the fast member must dominate.
	if counts["Fast"] < 25 {
		t.Fatalf("qos policy counts = %v, want Fast to dominate", counts)
	}
}

func TestQoSPolicyAvoidsUnreliableMember(t *testing.T) {
	c := New("C", Options{Policy: NewQoS(Weights{}), Failover: 1})
	good := member("Good", 1, service.SimulatedOptions{})
	flaky := member("Flaky", 1, service.SimulatedOptions{FailRate: 0.9, Seed: 3})
	if err := c.Join(flaky); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(good); err != nil {
		t.Fatal(err)
	}
	failures := 0
	for i := 0; i < 40; i++ {
		if _, err := c.Invoke(context.Background(), service.Request{
			Operation: "book", Params: map[string]string{"dest": "d"},
		}); err != nil {
			failures++
		}
	}
	if failures > 3 {
		t.Fatalf("%d failures; qos policy with failover should route around the flaky member", failures)
	}
	// History must show the flaky member as unreliable.
	if rel := c.History().Snapshot("Flaky").Reliability; rel > 0.6 {
		t.Fatalf("Flaky reliability = %v, want low", rel)
	}
}

func TestCheapestPolicy(t *testing.T) {
	c := New("C", Options{Policy: NewCheapest()})
	if err := c.Join(member("Pricey", 9, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(member("Budget", 1, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Invoke(context.Background(), service.Request{
		Operation: "book", Params: map[string]string{"dest": "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Outputs["addr"], "Budget") {
		t.Fatalf("addr = %q", resp.Outputs["addr"])
	}
}

func TestLeastLoadedPolicy(t *testing.T) {
	c := New("C", Options{Policy: NewLeastLoaded()})
	slowA := member("A", 1, service.SimulatedOptions{BaseLatency: 100 * time.Millisecond})
	b := member("B", 1, service.SimulatedOptions{})
	if err := c.Join(slowA); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(b); err != nil {
		t.Fatal(err)
	}
	// Occupy A, then the next request must go to B.
	c.History().Begin("A")
	defer c.History().End("A", 0, true)
	resp, err := c.Invoke(context.Background(), service.Request{
		Operation: "book", Params: map[string]string{"dest": "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Outputs["addr"], "B") {
		t.Fatalf("addr = %q, want B (least loaded)", resp.Outputs["addr"])
	}
}

func TestFailoverRetriesNextMember(t *testing.T) {
	// Policy always prefers "Broken" (cheapest); failover must rescue the
	// request via "Backup".
	c := New("C", Options{Policy: NewCheapest(), Failover: 2})
	broken := &Member{Provider: service.NewSimulated("Broken", service.SimulatedOptions{FailRate: 0.999999, Seed: 2}).Handle(
		"book", func(context.Context, map[string]string) (map[string]string, error) {
			return map[string]string{"addr": "Broken x"}, nil
		}), Cost: 1}
	backup := member("Backup", 5, service.SimulatedOptions{})
	if err := c.Join(broken); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(backup); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Invoke(context.Background(), service.Request{
		Operation: "book", Params: map[string]string{"dest": "d"},
	})
	if err != nil {
		t.Fatalf("failover did not rescue: %v", err)
	}
	if !strings.HasPrefix(resp.Outputs["addr"], "Backup") {
		t.Fatalf("addr = %q", resp.Outputs["addr"])
	}
}

func TestNoFailoverSingleDelegation(t *testing.T) {
	c := New("C", Options{Policy: NewCheapest()}) // Failover: 0
	broken := &Member{Provider: service.NewSimulated("Broken", service.SimulatedOptions{FailRate: 0.999999, Seed: 2}).Echo("book"), Cost: 1}
	backup := member("Backup", 5, service.SimulatedOptions{})
	if err := c.Join(broken); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(backup); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(context.Background(), service.Request{
		Operation: "book", Params: map[string]string{"dest": "d"},
	}); err == nil {
		t.Fatal("single delegation should surface the member failure")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"random", "round-robin", "least-loaded", "qos", "cheapest"} {
		p, err := PolicyByName(name, 1)
		if err != nil || p.Name() != name {
			t.Fatalf("PolicyByName(%s) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("nope", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestHistoryRecordsDelegations(t *testing.T) {
	c := New("C", Options{})
	if err := c.Join(member("A", 1, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Invoke(context.Background(), service.Request{
			Operation: "book", Params: map[string]string{"dest": "d"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	m := c.History().Snapshot("A")
	if m.Executions != 5 || m.Load != 0 {
		t.Fatalf("history = %+v", m)
	}
}

func TestDynamicMembershipDuringTraffic(t *testing.T) {
	c := New("C", Options{})
	if err := c.Join(member("A", 1, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_, _ = c.Invoke(context.Background(), service.Request{
				Operation: "book", Params: map[string]string{"dest": "d"},
			})
		}
	}()
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("M%d", i)
		if err := c.Join(member(name, 1, service.SimulatedOptions{})); err != nil {
			t.Fatal(err)
		}
		c.Leave(name)
	}
	<-done
}

func BenchmarkCommunityInvoke(b *testing.B) {
	for _, policy := range []Policy{NewRandom(1), NewRoundRobin(), NewQoS(Weights{}), NewLeastLoaded()} {
		b.Run(policy.Name(), func(b *testing.B) {
			c := New("C", Options{Policy: policy})
			for i := 0; i < 8; i++ {
				if err := c.Join(member(fmt.Sprintf("M%d", i), float64(i), service.SimulatedOptions{})); err != nil {
					b.Fatal(err)
				}
			}
			req := service.Request{Operation: "book", Params: map[string]string{"dest": "d"}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Invoke(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
