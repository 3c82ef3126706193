package main

// End-to-end smoke tests for the community scenario across delegation
// policies: requests distribute over the members, the fast member's
// departure shifts traffic, and an unknown policy is rejected.

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestRunPolicies(t *testing.T) {
	for _, policy := range []string{"qos", "random", "round-robin", "least-loaded", "cheapest"} {
		t.Run(policy, func(t *testing.T) {
			var out bytes.Buffer
			if err := Run(&out, policy, 60); err != nil {
				t.Fatalf("Run(%s): %v\noutput:\n%s", policy, err, out.String())
			}
			got := out.String()
			for _, want := range []string{
				"delegation distribution:",
				"FastCheap leaves the community",
			} {
				if !strings.Contains(got, want) {
					t.Errorf("output missing %q:\n%s", want, got)
				}
			}
		})
	}
}

// TestRunRoundRobinDistribution pins the exact round-robin delegation
// counts. Round-robin and the seeded flaky member make them
// deterministic, and the first phase depends on SydneyOnly's membership
// predicate excluding it from the 20 melbourne requests.
func TestRunRoundRobinDistribution(t *testing.T) {
	var out bytes.Buffer
	if err := Run(&out, "round-robin", 60); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	phases := strings.SplitN(got, "FastCheap leaves the community", 2)
	if len(phases) != 2 {
		t.Fatalf("output has no second phase:\n%s", got)
	}
	for i, want := range []map[string]int{
		{"FastCheap": 26, "FlakyBudget": 10, "SlowPremium": 13, "SydneyOnly": 11},
		{"FlakyBudget": 14, "SlowPremium": 17, "SydneyOnly": 19},
	} {
		for member, n := range want {
			re := regexp.MustCompile(`(?m)^\s+` + member + `\s+` + strconv.Itoa(n) + ` bookings`)
			if !re.MatchString(phases[i]) {
				t.Errorf("phase %d: want %s with %d bookings:\n%s", i+1, member, n, phases[i])
			}
		}
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	var out bytes.Buffer
	if err := Run(&out, "no-such-policy", 10); err == nil {
		t.Fatal("Run with an unknown policy succeeded, want error")
	}
}
