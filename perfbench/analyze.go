package main

import (
	"fmt"
	"sort"
)

// Span analysis: transit matching, self times, the blocking path of each
// execution and the partition of its latency into layer terms.

// Labels of the latency partition, in the order the report prints them.
const (
	termWrapperStart  = "engine.wrapper.start"
	termTransit       = "transport.transit"
	termSend          = "transport.send"
	termHostHandle    = "engine.host.handle"
	termInvoke        = "service.invoke"
	termWrapperHandle = "engine.wrapper.handle"
	termReturnWait    = "engine.wrapper.return_wait"
	termUnattributed  = "unattributed"
)

var termOrder = []string{termWrapperStart, termTransit, termSend, termHostHandle, termInvoke,
	termWrapperHandle, termReturnWait, termUnattributed}

// matchTransit pairs every handler span with the send span that carried
// its message: per (instance, from, to, type) key, the k-th send in start
// order carried the message the k-th handler in start order handled. It
// returns handler index -> send index.
func matchTransit(spans []span) map[int]int {
	sends := map[msgKey][]int{}
	handles := map[msgKey][]int{}
	for i, s := range spans {
		switch s.kind {
		case kindSend:
			for _, k := range s.keys {
				sends[k] = append(sends[k], i)
			}
		case kindHostHandle, kindWrapperHandle:
			handles[s.keys[0]] = append(handles[s.keys[0]], i)
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	cause := make(map[int]int, len(spans)/3)
	for k, hs := range handles {
		ss := sends[k]
		byStart(hs)
		byStart(ss)
		for j := 0; j < len(hs) && j < len(ss); j++ {
			cause[hs[j]] = ss[j]
		}
	}
	return cause
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.start, c.end}
	}
	return s.end - s.start - covered(s.start, s.end, ivs)
}

// pathElem is one interval of an execution's blocking path. Where
// intervals overlap, the one later on the path (higher rank) owns the
// time: the execution has already moved on to it.
type pathElem struct {
	label      string
	start, end int64
}

// partition splits [start, end) among elems by rank (the element's index
// in elems; a later element wins an overlap). Time no element covers is
// returned as unattributed. The parts always sum to end - start.
func partition(start, end int64, elems []pathElem) (map[string]int64, int64) {
	cuts := []int64{start, end}
	for _, e := range elems {
		if e.start > start && e.start < end {
			cuts = append(cuts, e.start)
		}
		if e.end > start && e.end < end {
			cuts = append(cuts, e.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	parts := map[string]int64{}
	var unattributed int64
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		owner := -1
		for r := len(elems) - 1; r >= 0; r-- {
			if elems[r].start <= a && elems[r].end >= b {
				owner = r
				break
			}
		}
		if owner < 0 {
			unattributed += b - a
		} else {
			parts[elems[owner].label] += b - a
		}
	}
	return parts, unattributed
}

// traceReport is the per-layer breakdown of one traced phase.
type traceReport struct {
	execs      int
	incomplete int     // executions whose blocking path could not be rebuilt
	meanLatUs  float64 // mean client-measured latency of the traced executions
	termsUs    map[string]float64

	wrapperStartUs, wrapperHandleSelfUs, wrapperReturnWaitUs float64
	hostHandlesPerExec, hostHandleSelfUs                     float64
	sendUs, transitUsPerHop                                  float64
	invokesPerExec, invokeUs                                 float64
	delegateSelfUsPerCall, memberAttemptsPerCall             float64
}

// analyze builds the report from the spans of the executions in insts.
func analyze(all []span, insts map[string]bool) traceReport {
	spans := make([]span, 0, len(all))
	for _, s := range all {
		if insts[s.inst] {
			spans = append(spans, s)
		}
	}
	byID := make(map[uint64]int, len(spans))
	children := map[uint64][]span{}
	wrapperHandles := map[string][]int{}
	for i, s := range spans {
		byID[s.id] = i
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
		if s.kind == kindWrapperHandle {
			wrapperHandles[s.inst] = append(wrapperHandles[s.inst], i)
		}
	}
	cause := matchTransit(spans)

	var r traceReport
	r.termsUs = map[string]float64{}
	const us = 1e3
	var latSum, startSum, returnSum, handleSelf, wrapperSelf, sendSum, invokeSum, delegateSelf float64
	var hostHandles, invokes, delegates, members int
	for i, s := range spans {
		switch s.kind {
		case kindExec:
			r.execs++
			latSum += float64(s.end - s.start)
			first := int64(-1)
			for _, c := range children[s.id] {
				if c.kind == kindSend && (first < 0 || c.start < first) {
					first = c.start
				}
			}
			if first >= 0 {
				startSum += float64(first - s.start)
			}
			parts, unattributed, last, ok := blockingPath(spans, i, wrapperHandles[s.inst], byID, children, cause)
			if !ok {
				r.incomplete++
				r.termsUs[termUnattributed] += float64(s.end - s.start)
				continue
			}
			for label, ns := range parts {
				r.termsUs[label] += float64(ns)
			}
			r.termsUs[termUnattributed] += float64(unattributed)
			if w := s.end - spans[last].end; w > 0 {
				returnSum += float64(w)
			}
		case kindHostHandle:
			hostHandles++
			handleSelf += float64(selfTime(s, children[s.id]))
		case kindWrapperHandle:
			wrapperSelf += float64(selfTime(s, children[s.id]))
		case kindSend:
			sendSum += float64(s.end - s.start)
		case kindInvoke, kindDelegate:
			invokes++
			invokeSum += float64(s.end - s.start)
			if s.kind == kindDelegate {
				delegates++
				delegateSelf += float64(selfTime(s, children[s.id]))
			}
		case kindMember:
			members++
		}
	}
	var transitSum float64
	for h, snd := range cause {
		transitSum += float64(spans[h].start - spans[snd].start)
	}
	if len(cause) > 0 {
		r.transitUsPerHop = transitSum / float64(len(cause)) / us
	}
	if delegates > 0 {
		r.delegateSelfUsPerCall = delegateSelf / float64(delegates) / us
		r.memberAttemptsPerCall = float64(members) / float64(delegates)
	}
	if r.execs == 0 {
		return r
	}
	n := float64(r.execs)
	r.meanLatUs = latSum / n / us
	for k, v := range r.termsUs {
		r.termsUs[k] = v / n / us
	}
	r.wrapperStartUs = startSum / n / us
	r.wrapperHandleSelfUs = wrapperSelf / n / us
	r.wrapperReturnWaitUs = returnSum / n / us
	r.hostHandlesPerExec = float64(hostHandles) / n
	r.hostHandleSelfUs = handleSelf / n / us
	r.sendUs = sendSum / n / us
	r.invokesPerExec = float64(invokes) / n
	r.invokeUs = invokeSum / n / us
	return r
}

// maxIncomplete is the largest share of traced executions whose
// blocking path may go unrebuilt. Their whole latency counts as
// unattributed, so above it the path terms would read low and the
// reconciliation would show nothing.
const maxIncomplete = 0.001

// check fails when the blocking path could not be rebuilt for more than
// maxIncomplete of the executions, or when the terms do not sum to the
// mean latency.
func (r traceReport) check() error {
	if float64(r.incomplete) > maxIncomplete*float64(r.execs) {
		return fmt.Errorf("reconciliation: %d of %d traced executions without a complete path (at most %.1f%% allowed)",
			r.incomplete, r.execs, maxIncomplete*100)
	}
	var sum float64
	for _, t := range termOrder {
		sum += r.termsUs[t]
	}
	if d := sum - r.meanLatUs; d > 1e-3 || d < -1e-3 {
		return fmt.Errorf("reconciliation: terms sum to %.3fus, mean latency is %.3fus", sum, r.meanLatUs)
	}
	return nil
}

// attributedUs is the part of the mean latency some span owns.
func (r traceReport) attributedUs() float64 {
	var sum float64
	for k, v := range r.termsUs {
		if k != termUnattributed {
			sum += v
		}
	}
	return sum
}

// blockingPath walks back from the wrapper handler that completed the
// execution (the last one to start) through each handler's cause send,
// that send's parent handler and the invocation the handler's firing
// made, to the client's own send. It partitions the execution's latency
// along that path and returns the completing handler's index.
func blockingPath(spans []span, exec int, wrapperHandles []int, byID map[uint64]int,
	children map[uint64][]span, cause map[int]int) (map[string]int64, int64, int, bool) {
	root := spans[exec]
	last := -1
	for _, h := range wrapperHandles {
		if spans[h].start <= root.end && (last < 0 || spans[h].start > spans[last].start) {
			last = h
		}
	}
	if last < 0 {
		return nil, 0, -1, false
	}
	// Collected backwards, one hop (send, handler, invocation) at a time;
	// out is the send that left the current handler's firing.
	var rev []pathElem
	cur, out := last, -1
	for {
		snd, ok := cause[cur]
		if !ok {
			return nil, 0, -1, false
		}
		h, s := spans[cur], spans[snd]
		label := termHostHandle
		if h.kind == kindWrapperHandle {
			label = termWrapperHandle
		}
		if out >= 0 {
			var inv *span
			for _, c := range children[h.id] {
				if (c.kind == kindInvoke || c.kind == kindDelegate) && c.end <= spans[out].start &&
					(inv == nil || c.start > inv.start) {
					inv = &c
				}
			}
			if inv != nil {
				rev = append(rev, pathElem{termInvoke, inv.start, inv.end})
			}
		}
		rev = append(rev,
			pathElem{label, h.start, h.end},
			pathElem{termSend, s.start, s.end},
			pathElem{termTransit, s.start, h.start})
		if s.parent == root.id {
			break
		}
		p, ok := byID[s.parent]
		if !ok || spans[p].kind != kindHostHandle {
			return nil, 0, -1, false
		}
		cur, out = p, snd
	}
	first := rev[len(rev)-1] // the client's start send's transit
	elems := make([]pathElem, 0, len(rev)+2)
	elems = append(elems, pathElem{termWrapperStart, root.start, first.start})
	for i := len(rev) - 1; i >= 0; i-- {
		elems = append(elems, rev[i])
	}
	elems = append(elems, pathElem{termReturnWait, spans[last].end, root.end})
	parts, unattributed := partition(root.start, root.end, elems)
	return parts, unattributed, last, true
}
