package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"selfserv/internal/message"
	"selfserv/internal/service"
	"selfserv/internal/transport"
)

// The tracer records spans from outside the platform, at its public
// seams: a transport.Network whose Listen and Open wrap every Handler
// and Sender, the service.Providers registered on hosts, and community
// members. The engine threads the context a handler receives through to
// the Invoke and Send calls of the firing that handler triggers, so a
// span stored in that context becomes their parent. A handler's cause
// is found by matching its message to the send that carried it.

type spanKind uint8

const (
	kindExec          spanKind = iota // one ExecuteInstance call, timed by the client
	kindWrapperHandle                 // the wrapper's handler for a done/fault notice
	kindHostHandle                    // a host's handler for a start/notify message
	kindSend                          // one Sender.Send or SendBatch call
	kindInvoke                        // a registered elementary provider
	kindDelegate                      // a registered community (also an invocation)
	kindMember                        // a community member, called by the community
)

var kindNames = [...]string{"exec", "wrapper.handle", "host.handle", "send", "invoke", "delegate", "member"}

func (k spanKind) String() string { return kindNames[k] }

// msgKey identifies one message of an execution for transit matching.
type msgKey struct {
	inst, from, to string
	typ            message.Type
}

func keyOf(m *message.Message) msgKey {
	return msgKey{inst: m.Instance, from: m.From, to: m.To, typ: m.Type}
}

// span is one timed call. Times are nanoseconds since the tracer's base.
type span struct {
	id, parent uint64
	kind       spanKind
	inst       string
	start, end int64
	// keys are the messages a send carried, or the one a handler handled.
	keys []msgKey
}

type spanCtxKey struct{}

// spanRef is what a span leaves in the context for its children.
type spanRef struct {
	id   uint64
	inst string
}

func parentOf(ctx context.Context) spanRef {
	if ref, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		return ref
	}
	return spanRef{}
}

// tracer keeps every span in memory until the run ends. It also keeps a
// copy of each frame sent for a sampled instance, for the codec replay.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64
	sample func(inst string) bool
	// recording is off while the traced fleet burns in.
	recording atomic.Bool

	mu     sync.Mutex
	spans  []span
	frames [][]*message.Message
}

func newTracer(sample func(inst string) bool) *tracer {
	return &tracer{base: time.Now(), sample: sample, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under the span found in ctx and returns it with a
// context carrying it.
func (t *tracer) begin(ctx context.Context, kind spanKind, inst string) (span, context.Context) {
	parent := parentOf(ctx)
	if inst == "" {
		inst = parent.inst
	}
	s := span{id: t.nextID.Add(1), parent: parent.id, kind: kind, inst: inst}
	ctx = context.WithValue(ctx, spanCtxKey{}, spanRef{id: s.id, inst: inst})
	s.start = t.now()
	return s, ctx
}

func (t *tracer) end(s span) {
	s.end = t.now()
	if !t.recording.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) capture(ms []*message.Message) {
	if len(ms) == 0 || !t.recording.Load() || !t.sample(ms[0].Instance) {
		return
	}
	cp := make([]*message.Message, len(ms))
	for i, m := range ms {
		cp[i] = m.Clone()
	}
	t.mu.Lock()
	t.frames = append(t.frames, cp)
	t.mu.Unlock()
}

// stop ends recording and hands over what was recorded.
func (t *tracer) stop() ([]span, [][]*message.Message) {
	t.recording.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, frames := t.spans, t.frames
	t.spans, t.frames = nil, nil
	return spans, frames
}

// dumpSpans writes spans, one per line, to path.
func dumpSpans(spans []span, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tkind\tinstance\tstart_ns\tend_ns\tmessages")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t", s.id, s.parent, s.kind, s.inst, s.start, s.end)
		for i, k := range s.keys {
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%s:%s>%s", k.typ, k.from, k.to)
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// network decorates a transport.Network so that every handler and
// sender it hands out records spans. Everything else passes through.
func (t *tracer) network(inner transport.Network) transport.Network {
	return &tracedNetwork{Network: inner, t: t}
}

type tracedNetwork struct {
	transport.Network
	t *tracer
}

func (n *tracedNetwork) Listen(addr string, h transport.Handler) (transport.Endpoint, error) {
	t := n.t
	return n.Network.Listen(addr, func(ctx context.Context, m *message.Message) {
		kind := kindHostHandle
		if m.To == message.WrapperID {
			kind = kindWrapperHandle
		}
		// The in-memory network hands the sender's context to the
		// handler; the handler's span replaces the sender's as parent.
		s, ctx := t.begin(ctx, kind, m.Instance)
		s.keys = []msgKey{keyOf(m)}
		h(ctx, m)
		t.end(s)
	})
}

func (n *tracedNetwork) Open(from string) transport.Sender {
	return &tracedSender{inner: n.Network.Open(from), t: n.t}
}

// The engine finds the availability recorder by type assertion on the
// network; forwarding it keeps a traced platform's behaviour unchanged.
func (n *tracedNetwork) RecordFailover(addr string) {
	if r, ok := n.Network.(transport.AvailabilityRecorder); ok {
		r.RecordFailover(addr)
	}
}

func (n *tracedNetwork) RecordShed(addr string) {
	if r, ok := n.Network.(transport.AvailabilityRecorder); ok {
		r.RecordShed(addr)
	}
}

func (n *tracedNetwork) RecordBreakerOpen(addr string) {
	if r, ok := n.Network.(transport.AvailabilityRecorder); ok {
		r.RecordBreakerOpen(addr)
	}
}

type tracedSender struct {
	inner transport.Sender
	t     *tracer
}

func (s *tracedSender) From() string { return s.inner.From() }

func (s *tracedSender) Send(ctx context.Context, to string, m *message.Message) error {
	s.t.capture([]*message.Message{m})
	sp, _ := s.t.begin(ctx, kindSend, m.Instance)
	sp.keys = []msgKey{keyOf(m)}
	err := s.inner.Send(ctx, to, m)
	s.t.end(sp)
	return err
}

func (s *tracedSender) SendBatch(ctx context.Context, to string, ms []*message.Message) error {
	if len(ms) == 0 {
		return s.inner.SendBatch(ctx, to, ms)
	}
	s.t.capture(ms)
	sp, _ := s.t.begin(ctx, kindSend, ms[0].Instance)
	sp.keys = make([]msgKey, len(ms))
	for i, m := range ms {
		sp.keys[i] = keyOf(m)
	}
	err := s.inner.SendBatch(ctx, to, ms)
	s.t.end(sp)
	return err
}

// provider decorates p so that each Invoke records a span of kind. A
// nil tracer returns p itself.
func (t *tracer) provider(kind spanKind, p service.Provider) service.Provider {
	if t == nil {
		return p
	}
	return &tracedProvider{Provider: p, t: t, kind: kind}
}

type tracedProvider struct {
	service.Provider
	t    *tracer
	kind spanKind
}

func (p *tracedProvider) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	s, ctx := p.t.begin(ctx, p.kind, "")
	resp, err := p.Provider.Invoke(ctx, req)
	p.t.end(s)
	return resp, err
}
