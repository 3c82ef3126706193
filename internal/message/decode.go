package message

import (
	"encoding/binary"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file implements the fast path of Unmarshal: a non-reflective
// parser for exactly the documents Marshal produces —
//
//	<message attr="..." ...>
//	  <error>text</error>?
//	  <var name="...">text</var>*
//	</message>
//
// plus insignificant whitespace between elements. Anything else (XML
// declarations, comments, CDATA, namespaces, unknown children) makes the
// parser decline, and Unmarshal rejects the document. Accepting is only
// done when the document parses fully.

// unmarshalFast parses data; ok=false means "not a message document".
func unmarshalFast(data []byte) (*Message, bool) {
	if !xmlChars(data) {
		return nil, false
	}
	p := &fastParser{s: data}
	p.space()
	if !p.lit("<message") {
		return nil, false
	}
	m := &Message{}
	// Attributes, each preceded by whitespace.
	for {
		spaced := p.space()
		if p.lit("/>") {
			p.space()
			if p.pos != len(p.s) {
				return nil, false
			}
			return m, true
		}
		if p.lit(">") {
			break
		}
		if !spaced {
			return nil, false
		}
		name, ok := p.attrName()
		if !ok {
			return nil, false
		}
		val, ok := p.attrValue()
		if !ok {
			return nil, false
		}
		switch name {
		case "type":
			m.Type = Type(val)
		case "composite":
			m.Composite = val
		case "instance":
			m.Instance = val
		case "from":
			m.From = val
		case "to":
			m.To = val
		case "seq":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, false
			}
			m.Seq = n
		case "version":
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, false
			}
			m.Version = v
		case "replyTo":
			m.ReplyTo = val
		default:
			return nil, false // unknown attribute: not a message document
		}
	}
	// Children.
	for {
		p.space()
		if p.lit("</message>") {
			p.space()
			if p.pos != len(p.s) {
				return nil, false
			}
			return m, true
		}
		switch {
		case p.lit("<error>"):
			text, ok := p.textUntil("</error>")
			if !ok {
				return nil, false
			}
			m.Error = text
		case p.lit("<error/>"):
			// empty error element: nothing to record
		case p.lit("<var"):
			if !p.space() {
				return nil, false
			}
			name, ok := p.attrName()
			if !ok || name != "name" {
				return nil, false
			}
			key, ok := p.attrValue()
			if !ok {
				return nil, false
			}
			p.space()
			var val string
			switch {
			case p.lit("/>"):
				val = ""
			case p.lit(">"):
				val, ok = p.textUntil("</var>")
				if !ok {
					return nil, false
				}
			default:
				return nil, false
			}
			if m.Vars == nil {
				m.Vars = map[string]string{}
			}
			m.Vars[key] = val
		default:
			return nil, false
		}
	}
}

type fastParser struct {
	s   []byte
	pos int
}

// space skips XML whitespace and reports whether there was any.
func (p *fastParser) space() bool {
	start := p.pos
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return p.pos > start
		}
	}
	return p.pos > start
}

// lit consumes the literal if it is next.
func (p *fastParser) lit(l string) bool {
	if len(p.s)-p.pos < len(l) || string(p.s[p.pos:p.pos+len(l)]) != l {
		return false
	}
	p.pos += len(l)
	return true
}

// attrName reads an attribute name followed by '='.
func (p *fastParser) attrName() (string, bool) {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == '=' {
			name := string(p.s[start:p.pos])
			p.pos++
			return name, name != ""
		}
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.' {
			p.pos++
			continue
		}
		return "", false
	}
	return "", false
}

// attrValue reads a double- or single-quoted attribute value, unescaped.
func (p *fastParser) attrValue() (string, bool) {
	if p.pos >= len(p.s) {
		return "", false
	}
	quote := p.s[p.pos]
	if quote != '"' && quote != '\'' {
		return "", false
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == quote {
			raw := p.s[start:p.pos]
			p.pos++
			return xmlUnescape(raw)
		}
		if c == '<' {
			return "", false
		}
		p.pos++
	}
	return "", false
}

// textUntil reads character data up to the closing tag, unescaped. Any
// markup other than entities ('<' that is not the closing tag) makes the
// fast path decline.
func (p *fastParser) textUntil(closing string) (string, bool) {
	start := p.pos
	for p.pos < len(p.s) {
		if p.s[p.pos] == '<' {
			raw := p.s[start:p.pos]
			if !p.lit(closing) {
				return "", false
			}
			return xmlUnescape(raw)
		}
		p.pos++
	}
	return "", false
}

// xmlChars reports whether data is valid UTF-8 made only of characters
// XML allows, with no raw carriage return: XML parsers rewrite those to
// line feeds, and Marshal escapes every one it writes.
func xmlChars(data []byte) bool {
	i := 0
	// Eight bytes at a time while all are printable ASCII: no byte has its
	// high bit set and none is below 0x20 (subtracting 0x20 from such a
	// byte sets its high bit; a borrow only ever adds false alarms, which
	// the byte loop below then settles).
	for ; i+8 <= len(data); i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		if (w|(w-0x2020202020202020))&0x8080808080808080 != 0 {
			break
		}
	}
	for i < len(data) {
		if c := data[i]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' {
				return false
			}
			i++
			continue
		}
		r, w := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && w == 1 || !validXMLChar(r) {
			return false
		}
		i += w
	}
	return true
}

// validXMLChar reports whether r is a character XML 1.0 allows (the
// same set encoding/xml accepts in character references).
func validXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// xmlUnescape resolves the predefined and numeric character references.
// Unknown entities decline the fast path rather than guessing.
func xmlUnescape(raw []byte) (string, bool) {
	amp := -1
	for i, c := range raw {
		if c == '&' {
			amp = i
			break
		}
	}
	if amp < 0 {
		return string(raw), true
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	sb.Write(raw[:amp])
	for i := amp; i < len(raw); {
		if raw[i] != '&' {
			sb.WriteByte(raw[i])
			i++
			continue
		}
		semi := -1
		for j := i + 1; j < len(raw) && j-i <= 12; j++ {
			if raw[j] == ';' {
				semi = j
				break
			}
		}
		if semi < 0 {
			return "", false
		}
		ent := string(raw[i+1 : semi])
		switch ent {
		case "amp":
			sb.WriteByte('&')
		case "lt":
			sb.WriteByte('<')
		case "gt":
			sb.WriteByte('>')
		case "quot":
			sb.WriteByte('"')
		case "apos":
			sb.WriteByte('\'')
		default:
			if len(ent) < 2 || ent[0] != '#' {
				return "", false
			}
			var (
				n   uint64
				err error
			)
			if ent[1] == 'x' || ent[1] == 'X' {
				n, err = strconv.ParseUint(ent[2:], 16, 32)
			} else {
				n, err = strconv.ParseUint(ent[1:], 10, 32)
			}
			if err != nil || !validXMLChar(rune(n)) {
				// Invalid XML character reference (NUL, surrogate,
				// out-of-range): decline, so the document is rejected
				// instead of us guessing.
				return "", false
			}
			sb.WriteRune(rune(n))
		}
		i = semi + 1
	}
	return sb.String(), true
}
