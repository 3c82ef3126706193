// Package message defines the XML control documents that SELF-SERV peers
// exchange. In the paper, services "communicate through XML documents ...
// exchanged through Java sockets"; this package is the Go equivalent of
// that document vocabulary, shared by the peer-to-peer coordinators, the
// composite-service wrapper, and the centralized baseline orchestrator.
package message

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Type discriminates control documents.
type Type string

// Message types.
const (
	// TypeStart flows from the composite wrapper to the coordinators of
	// the states that must be entered first.
	TypeStart Type = "start"
	// TypeNotify flows between peer coordinators: the source state has
	// completed and its postprocessing selected the target.
	TypeNotify Type = "notify"
	// TypeDone flows from the coordinators of the states exited last back
	// to the composite wrapper, carrying the final variable bindings.
	TypeDone Type = "done"
	// TypeFault reports a failed execution to the wrapper.
	TypeFault Type = "fault"
	// TypeInvoke asks a service host to execute an operation (used by the
	// centralized orchestrator and by wrappers talking to providers).
	TypeInvoke Type = "invoke"
	// TypeResult carries an operation result back to the invoker.
	TypeResult Type = "result"
)

// WrapperID is the reserved pseudo-address of a composite service's
// wrapper in From/To fields of control messages.
const WrapperID = "$wrapper"

// Message is one control document. Vars carries the execution instance's
// variable bindings as text (see expr.FromText for the text convention).
type Message struct {
	// Type discriminates the document.
	Type Type
	// Composite names the composite service the instance belongs to.
	Composite string
	// Instance identifies one execution of the composite service.
	Instance string
	// From and To are state IDs within the composite's statechart, or
	// WrapperID. For TypeInvoke/TypeResult, To/From name the target
	// service and operation as "service/operation".
	From string
	To   string
	// Seq is a sender-local sequence number, useful in logs and tests.
	Seq int
	// Version pins the message to the compiled-plan version the instance
	// started on. Zero means "unversioned" (pre-control-plane senders);
	// zero is omitted on the wire, so legacy documents are byte-identical.
	Version uint64
	// Vars is the variable bag. Nil and empty are equivalent.
	Vars map[string]string
	// Error describes a fault (TypeFault or failed TypeResult).
	Error string
	// ReplyTo is the network address to send a TypeResult back to; set on
	// TypeInvoke messages.
	ReplyTo string
}

// Clone returns an independent copy of m (its Vars map is copied).
func (m *Message) Clone() *Message {
	cp := *m
	if m.Vars != nil {
		cp.Vars = make(map[string]string, len(m.Vars))
		for k, v := range m.Vars {
			cp.Vars[k] = v
		}
	}
	return &cp
}

// MergeVars copies bindings from vars into m.Vars, overwriting existing
// names, and returns m for chaining.
func (m *Message) MergeVars(vars map[string]string) *Message {
	if len(vars) == 0 {
		return m
	}
	if m.Vars == nil {
		m.Vars = make(map[string]string, len(vars))
	}
	for k, v := range vars {
		m.Vars[k] = v
	}
	return m
}

// String renders a compact one-line summary for logs.
func (m *Message) String() string {
	return fmt.Sprintf("%s %s/%s %s->%s vars=%d", m.Type, m.Composite, m.Instance, m.From, m.To, len(m.Vars))
}

// marshalBufPool recycles encode buffers across Marshal calls: every
// notification on every transport serializes through here, so the buffer
// (and its grown backing array) is the dominant per-message allocation.
var marshalBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Marshal encodes m as an XML document. Variables are emitted in sorted
// order so the encoding is deterministic (stable tests, stable byte
// counts in benchmarks).
//
// The encoder is hand-rolled for this package's small fixed vocabulary —
// the reflection-based encoding/xml encoder accounted for most of the
// per-notification allocation cost. The wire format is unchanged;
// oracle_test.go keeps that encoder as the differential-test reference.
func Marshal(m *Message) ([]byte, error) {
	buf := marshalBufPool.Get().(*bytes.Buffer)
	defer marshalBufPool.Put(buf)
	buf.Reset()
	encodeInto(buf, m)

	// Copy out: the buffer returns to the pool, so its bytes can't escape.
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// encodeInto appends m's XML document to buf (the shared body of Marshal
// and MarshalBatch).
func encodeInto(buf *bytes.Buffer, m *Message) {
	buf.WriteString(`<message type="`)
	xmlEscape(buf, string(m.Type))
	buf.WriteByte('"')
	writeAttr(buf, ` composite="`, m.Composite)
	writeAttr(buf, ` instance="`, m.Instance)
	writeAttr(buf, ` from="`, m.From)
	writeAttr(buf, ` to="`, m.To)
	if m.Seq != 0 {
		buf.WriteString(` seq="`)
		buf.WriteString(strconv.Itoa(m.Seq))
		buf.WriteByte('"')
	}
	if m.Version != 0 {
		buf.WriteString(` version="`)
		buf.WriteString(strconv.FormatUint(m.Version, 10))
		buf.WriteByte('"')
	}
	writeAttr(buf, ` replyTo="`, m.ReplyTo)
	buf.WriteByte('>')
	if m.Error != "" {
		buf.WriteString("<error>")
		xmlEscape(buf, m.Error)
		buf.WriteString("</error>")
	}
	if len(m.Vars) > 0 {
		names := make([]string, 0, len(m.Vars))
		for k := range m.Vars {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			buf.WriteString(`<var name="`)
			xmlEscape(buf, k)
			buf.WriteString(`">`)
			xmlEscape(buf, m.Vars[k])
			buf.WriteString("</var>")
		}
	}
	buf.WriteString("</message>")
}

// writeAttr emits ` name="value"` (prefix carries name and opening quote),
// omitting empty values like encoding/xml's omitempty.
func writeAttr(buf *bytes.Buffer, prefix, value string) {
	if value == "" {
		return
	}
	buf.WriteString(prefix)
	xmlEscape(buf, value)
	buf.WriteByte('"')
}

// xmlEscape writes s with the escaping xml.EscapeText applies, so
// hand-encoded documents stay readable by any XML parser: markup and
// whitespace control characters become references, and invalid UTF-8 or
// characters XML forbids become U+FFFD.
func xmlEscape(buf *bytes.Buffer, s string) {
	last := 0
	for i := 0; i < len(s); {
		c, width := s[i], 1
		var esc string
		switch c {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if c >= 0x20 && c < utf8.RuneSelf {
				i++
				continue
			}
			if c >= utf8.RuneSelf {
				var r rune
				r, width = utf8.DecodeRuneInString(s[i:])
				if validXMLChar(r) && !(r == utf8.RuneError && width == 1) {
					i += width
					continue
				}
			}
			esc = "\uFFFD"
		}
		buf.WriteString(s[last:i])
		buf.WriteString(esc)
		i += width
		last = i
	}
	buf.WriteString(s[last:])
}

// Unmarshal decodes an XML document produced by Marshal, with a
// hand-rolled parser specialized to the message vocabulary. Documents
// outside that vocabulary — XML declarations, processing instructions,
// comments, CDATA, foreign elements or attributes — are rejected: no
// peer of this system emits them.
func Unmarshal(data []byte) (*Message, error) {
	m, ok := unmarshalFast(data)
	if !ok {
		return nil, fmt.Errorf("message: unmarshal: not a message document")
	}
	if m.Type == "" {
		return nil, fmt.Errorf("message: document has no type attribute")
	}
	return m, nil
}
