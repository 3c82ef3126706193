package message

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"sort"
)

// The reflection-based encoding/xml codec the hand-rolled Marshal and
// Unmarshal replaced. It is the differential and fuzz oracle: whatever
// the production decoder accepts must decode identically here.

// xmlMessage is the wire representation.
type xmlMessage struct {
	XMLName   xml.Name `xml:"message"`
	Type      string   `xml:"type,attr"`
	Composite string   `xml:"composite,attr,omitempty"`
	Instance  string   `xml:"instance,attr,omitempty"`
	From      string   `xml:"from,attr,omitempty"`
	To        string   `xml:"to,attr,omitempty"`
	Seq       int      `xml:"seq,attr,omitempty"`
	Version   uint64   `xml:"version,attr,omitempty"`
	ReplyTo   string   `xml:"replyTo,attr,omitempty"`
	Error     string   `xml:"error,omitempty"`
	Vars      []xmlVar `xml:"var"`
}

type xmlVar struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// marshalXML is the reflection-based reference encoder (the original
// implementation). Kept for differential tests: Marshal's output must
// decode to the same Message as marshalXML's.
func marshalXML(m *Message) ([]byte, error) {
	doc := xmlMessage{
		Type:      string(m.Type),
		Composite: m.Composite,
		Instance:  m.Instance,
		From:      m.From,
		To:        m.To,
		Seq:       m.Seq,
		Version:   m.Version,
		ReplyTo:   m.ReplyTo,
		Error:     m.Error,
	}
	if len(m.Vars) > 0 {
		names := make([]string, 0, len(m.Vars))
		for k := range m.Vars {
			names = append(names, k)
		}
		sort.Strings(names)
		doc.Vars = make([]xmlVar, 0, len(names))
		for _, k := range names {
			doc.Vars = append(doc.Vars, xmlVar{Name: k, Value: m.Vars[k]})
		}
	}
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("message: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

// unmarshalXML is the reflection-based reference decoder (the original
// implementation).
func unmarshalXML(data []byte) (*Message, error) {
	var doc xmlMessage
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("message: unmarshal: %w", err)
	}
	if doc.Type == "" {
		return nil, fmt.Errorf("message: document has no type attribute")
	}
	m := &Message{
		Type:      Type(doc.Type),
		Composite: doc.Composite,
		Instance:  doc.Instance,
		From:      doc.From,
		To:        doc.To,
		Seq:       doc.Seq,
		Version:   doc.Version,
		ReplyTo:   doc.ReplyTo,
		Error:     doc.Error,
	}
	if len(doc.Vars) > 0 {
		m.Vars = make(map[string]string, len(doc.Vars))
		for _, v := range doc.Vars {
			m.Vars[v.Name] = v.Value
		}
	}
	return m, nil
}
