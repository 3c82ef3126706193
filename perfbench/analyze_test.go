package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"selfserv/internal/message"
)

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	samples := make([]int64, 100)
	for i := range samples {
		samples[i] = int64(100 - i) // unsorted on purpose
	}
	for _, tc := range []struct {
		p      float64
		value  int64
		beyond int
	}{
		{50, 50, 50},
		{99, 99, 1},
		{100, 100, 0},
		{0.5, 1, 99},
	} {
		v, beyond := percentile(samples, tc.p)
		if v != tc.value || beyond != tc.beyond {
			t.Errorf("p%v of 1..100 = %d with %d beyond, want %d with %d", tc.p, v, beyond, tc.value, tc.beyond)
		}
	}
	// Ties: samples equal to the percentile are not beyond it.
	if v, beyond := percentile([]int64{3, 2, 2, 1, 2}, 50); v != 2 || beyond != 1 {
		t.Errorf("p50 of {1,2,2,2,3} = %d with %d beyond, want 2 with 1", v, beyond)
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("p99 of no samples = %d, %d", v, beyond)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 10, end: 30},
		{start: 20, end: 50},   // overlaps the first: [10,50) covered once
		{start: 90, end: 120},  // runs past the parent's end: only [90,100) counts
		{start: 200, end: 210}, // outside the parent entirely
		{start: 25, end: 40},   // inside another child
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestMatchTransitPairsSendsAndHandlersInOrder(t *testing.T) {
	k1 := msgKey{inst: "i", from: "s1", to: "s2", typ: message.TypeNotify}
	k2 := msgKey{inst: "i", from: "s2", to: message.WrapperID, typ: message.TypeDone}
	spans := []span{
		{kind: kindHostHandle, start: 40, keys: []msgKey{k1}},          // 0: second delivery of k1
		{kind: kindSend, start: 5, keys: []msgKey{k1}},                 // 1
		{kind: kindSend, start: 30, keys: []msgKey{k1, k2}},            // 2: a batch
		{kind: kindHostHandle, start: 10, keys: []msgKey{k1}},          // 3: first delivery of k1
		{kind: kindWrapperHandle, start: 45, keys: []msgKey{k2}},       // 4
		{kind: kindHostHandle, start: 50, keys: []msgKey{{inst: "j"}}}, // 5: no send
	}
	got := matchTransit(spans)
	want := map[int]int{3: 1, 0: 2, 4: 2}
	if len(got) != len(want) {
		t.Fatalf("matches = %v, want %v", got, want)
	}
	for h, s := range want {
		if got[h] != s {
			t.Errorf("handler %d matched send %d, want %d", h, got[h], s)
		}
	}
}

// chainSpans is one execution of a two-state chain: the client's start
// message to s1, s1's invocation and its done message to the wrapper.
func chainSpans(handlerStart int64) []span {
	start := msgKey{inst: "i", from: message.WrapperID, to: "s1", typ: message.TypeStart}
	done := msgKey{inst: "i", from: "s1", to: message.WrapperID, typ: message.TypeDone}
	return []span{
		{id: 1, kind: kindExec, inst: "i", start: 0, end: 100},
		{id: 2, parent: 1, kind: kindSend, inst: "i", start: 5, end: 10, keys: []msgKey{start}},
		{id: 3, parent: 2, kind: kindHostHandle, inst: "i", start: handlerStart, end: 20, keys: []msgKey{start}},
		{id: 4, parent: 3, kind: kindInvoke, inst: "i", start: 25, end: 40},
		{id: 5, parent: 3, kind: kindSend, inst: "i", start: 45, end: 50, keys: []msgKey{done}},
		{id: 6, parent: 5, kind: kindWrapperHandle, inst: "i", start: 55, end: 60, keys: []msgKey{done}},
	}
}

// near compares figures that went through a nanosecond-to-microsecond
// conversion.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestReconciliationTermsSumToLatency(t *testing.T) {
	for _, tc := range []struct {
		name         string
		handlerStart int64
		want         map[string]float64 // per execution, in ns/1e3 units
	}{
		{"handler after send returns", 12, map[string]float64{
			termWrapperStart: 5, termSend: 10, termTransit: 7, termHostHandle: 8, termInvoke: 15,
			termWrapperHandle: 5, termReturnWait: 40, termUnattributed: 10,
		}},
		// The handler starts before the send returns: the path has moved
		// on, so the overlap belongs to the handler.
		{"handler overlaps send", 8, map[string]float64{
			termWrapperStart: 5, termSend: 8, termTransit: 5, termHostHandle: 12, termInvoke: 15,
			termWrapperHandle: 5, termReturnWait: 40, termUnattributed: 10,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := analyze(chainSpans(tc.handlerStart), map[string]bool{"i": true})
			if r.execs != 1 || r.incomplete != 0 {
				t.Fatalf("execs=%d incomplete=%d, want 1 and 0", r.execs, r.incomplete)
			}
			var sum float64
			for _, term := range termOrder {
				got := r.termsUs[term] * 1e3
				sum += got
				if !near(got, tc.want[term]) {
					t.Errorf("%s = %v, want %v", term, got, tc.want[term])
				}
			}
			if !near(sum, 100) || !near(r.meanLatUs*1e3, 100) {
				t.Errorf("terms sum to %v, mean latency %v, want both 100", sum, r.meanLatUs*1e3)
			}
			if got := r.attributedUs()*1e3 + r.termsUs[termUnattributed]*1e3; !near(got, 100) {
				t.Errorf("attributed + unattributed = %v, want 100", got)
			}
		})
	}
}

func TestAnalyzeLayerFigures(t *testing.T) {
	spans := chainSpans(12)
	r := analyze(spans, map[string]bool{"i": true})
	const us = 1e3
	checks := []struct {
		name      string
		got, want float64
	}{
		{"wrapper start", r.wrapperStartUs * us, 5},
		{"wrapper handle self", r.wrapperHandleSelfUs * us, 5},
		{"return wait", r.wrapperReturnWaitUs * us, 40},
		{"host handles", r.hostHandlesPerExec, 1},
		// The invocation and the send run after the handler returned, so
		// they take nothing off its self time.
		{"host handle self", r.hostHandleSelfUs * us, 8},
		{"send", r.sendUs * us, 10},
		{"transit per hop", r.transitUsPerHop * us, (7 + 10) / 2.0},
		{"invokes", r.invokesPerExec, 1},
		{"invoke", r.invokeUs * us, 15},
	}
	for _, c := range checks {
		if !near(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// Without the wrapper's handler the path cannot be rebuilt: the whole
	// latency is unattributed, and the terms still sum to it.
	r = analyze(spans[:5], map[string]bool{"i": true})
	if r.incomplete != 1 || r.termsUs[termUnattributed]*us != 100 || r.attributedUs() != 0 {
		t.Errorf("incomplete=%d unattributed=%v attributed=%v", r.incomplete, r.termsUs[termUnattributed]*us, r.attributedUs())
	}
	// The sum alone cannot catch that, so the check also counts the
	// executions whose path was not rebuilt.
	if err := r.check(); err == nil {
		t.Error("check passed with the only execution's path missing")
	}
}

func TestReconciliationCheck(t *testing.T) {
	full := analyze(chainSpans(12), map[string]bool{"i": true})
	if err := full.check(); err != nil {
		t.Errorf("complete path: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(r *traceReport)
		ok     bool
	}{
		{"one incomplete in a thousand", func(r *traceReport) { r.execs, r.incomplete = 1000, 1 }, true},
		{"two incomplete in a thousand", func(r *traceReport) { r.execs, r.incomplete = 1000, 2 }, false},
		{"terms short of the latency", func(r *traceReport) { r.meanLatUs += 0.01 }, false},
	} {
		r := full
		r.termsUs = map[string]float64{}
		for k, v := range full.termsUs {
			r.termsUs[k] = v
		}
		tc.mutate(&r)
		if err := r.check(); (err == nil) != tc.ok {
			t.Errorf("%s: check returned %v", tc.name, err)
		}
	}
}

func TestCommunityFigures(t *testing.T) {
	spans := []span{
		{id: 1, kind: kindDelegate, inst: "i", start: 0, end: 10},
		{id: 2, parent: 1, kind: kindMember, inst: "i", start: 2, end: 5},
		{id: 3, parent: 1, kind: kindMember, inst: "i", start: 6, end: 8},
		{id: 4, kind: kindDelegate, inst: "i", start: 20, end: 24},
		{id: 5, parent: 4, kind: kindMember, inst: "i", start: 21, end: 23},
	}
	r := analyze(spans, map[string]bool{"i": true})
	if r.memberAttemptsPerCall != 1.5 {
		t.Errorf("member attempts per call = %v, want 1.5", r.memberAttemptsPerCall)
	}
	if got := r.delegateSelfUsPerCall * 1e3; got != (5+2)/2.0 {
		t.Errorf("delegate self per call = %v, want 3.5", got)
	}
}

// The contract file at the repository root must name exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(specs) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in specs", len(contract.Workloads), len(specs))
	}
	for i, w := range contract.Workloads {
		if i < len(specs) && w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in specs", i, w.Name, specs[i].name)
		}
	}
	for _, tc := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{contract.EndToEnd, endToEnd}, {contract.PerLayer, perLayer}} {
		if len(tc.listed) != len(tc.defs) {
			t.Errorf("%d metrics listed, %d reported", len(tc.listed), len(tc.defs))
			continue
		}
		for i, m := range tc.listed {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("metric %d: %s (%s) listed, %s (%s) reported", i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}
