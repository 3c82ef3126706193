package message

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The hand-rolled codec must be observationally identical to the
// encoding/xml oracle in oracle_test.go: every message round-trips
// through all four codec combinations to the same value.

func randMessage(r *rand.Rand) *Message {
	randStr := func() string {
		alphabet := []rune("abz09 <>&\"'\t\néß漢-_./:")
		n := r.Intn(12)
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(out)
	}
	types := []Type{TypeStart, TypeNotify, TypeDone, TypeFault, TypeInvoke, TypeResult}
	m := &Message{
		Type:      types[r.Intn(len(types))],
		Composite: randStr(),
		Instance:  randStr(),
		From:      randStr(),
		To:        randStr(),
		Seq:       r.Intn(3),
		ReplyTo:   randStr(),
	}
	if r.Intn(3) == 0 {
		m.Error = randStr()
	}
	if n := r.Intn(5); n > 0 {
		m.Vars = map[string]string{}
		for i := 0; i < n; i++ {
			m.Vars[fmt.Sprintf("k%d", i)] = randStr()
		}
	}
	return m
}

// normalize maps empty-but-non-nil Vars to nil so decoded messages
// compare with reflect.DeepEqual regardless of codec.
func normalize(m *Message) *Message {
	if len(m.Vars) == 0 {
		m.Vars = nil
	}
	return m
}

func TestCodecDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		m := randMessage(r)

		fast, err := Marshal(m)
		if err != nil {
			t.Fatalf("#%d Marshal: %v (%+v)", i, err, m)
		}
		ref, err := marshalXML(m)
		if err != nil {
			t.Fatalf("#%d marshalXML: %v", i, err)
		}

		// Every (encoder, decoder) pair agrees on the decoded message.
		for name, data := range map[string][]byte{"fast": fast, "ref": ref} {
			viaFast, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("#%d Unmarshal(%s): %v\n%s", i, name, err, data)
			}
			viaRef, err := unmarshalXML(data)
			if err != nil {
				t.Fatalf("#%d unmarshalXML(%s): %v\n%s", i, name, err, data)
			}
			if !reflect.DeepEqual(normalize(viaFast), normalize(viaRef)) {
				t.Fatalf("#%d decoders disagree on %s bytes:\nfast: %+v\nref:  %+v\ndoc: %s",
					i, name, viaFast, viaRef, data)
			}
			if !reflect.DeepEqual(normalize(viaFast), normalize(m.Clone())) {
				t.Fatalf("#%d round trip via %s changed the message:\nin:  %+v\nout: %+v\ndoc: %s",
					i, name, m, viaFast, data)
			}
		}
	}
}

// TestFastPathDeclines: well-formed XML outside the message vocabulary
// is declined by the fast path and so rejected by Unmarshal. The oracle
// shows each document is valid XML that a general decoder would accept.
func TestFastPathDeclines(t *testing.T) {
	docs := []string{
		`<?xml version="1.0"?><message type="notify"></message>`,
		`<message type="notify"><!-- comment --></message>`,
		`<message type="notify"><var name="k"><![CDATA[v]]></var></message>`,
		`<message type="notify" extra="x"></message>`,
		`<message type="notify"><foreign/></message>`,
	}
	for _, doc := range docs {
		if _, err := unmarshalXML([]byte(doc)); err != nil {
			t.Fatalf("oracle rejects %q: %v", doc, err)
		}
		if m, err := Unmarshal([]byte(doc)); err == nil {
			t.Errorf("Unmarshal(%q) accepted: %+v", doc, m)
		}
	}
	// Insignificant whitespace between elements is still the vocabulary.
	m, err := Unmarshal([]byte("<message type=\"notify\">\n  <var name=\"k\">v</var>\n</message>"))
	if err != nil || m.Type != TypeNotify || m.Vars["k"] != "v" {
		t.Fatalf("Unmarshal(indented) = %+v, %v", m, err)
	}
}

// TestOracleRejectsImpliesRejected pins documents the fast path once
// accepted although encoding/xml rejects them: attributes without
// separating whitespace, invalid UTF-8, characters XML forbids, and a raw
// carriage return (which XML parsers rewrite to a line feed).
func TestOracleRejectsImpliesRejected(t *testing.T) {
	for _, doc := range []string{
		`<messagetype="notify"></message>`,
		`<message type="notify"to="s1"></message>`,
		`<message type="notify"><varname="k">v</var></message>`,
		"<message type=\"notify\"><var name=\"k\">\xac</var></message>",
		"<message type=\"notify\"><var name=\"k\">\x01</var></message>",
		"<message type=\"notify\"><var name=\"k\">a\rb</var></message>",
	} {
		if m, err := Unmarshal([]byte(doc)); err == nil {
			t.Errorf("Unmarshal(%q) accepted: %+v", doc, m)
		}
	}
}

// TestMarshalSanitizesLikeEncodingXML: values XML cannot carry are
// written as U+FFFD, exactly as the encoding/xml encoder writes them, so
// every document Marshal emits decodes.
func TestMarshalSanitizesLikeEncodingXML(t *testing.T) {
	m := &Message{Type: TypeNotify, Vars: map[string]string{"k": "a\x01b\xffc\r"}}
	for _, enc := range []func(*Message) ([]byte, error){Marshal, marshalXML} {
		data, err := enc(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%q): %v", data, err)
		}
		if want := "a\uFFFDb\uFFFDc\r"; got.Vars["k"] != want {
			t.Errorf("decoded %q from %q, want %q", got.Vars["k"], data, want)
		}
	}
}

func TestFastPathRejectsGarbage(t *testing.T) {
	for _, doc := range []string{"not xml", "<message/>", "<message type='x'", "<other type='x'/>"} {
		if m, ok := unmarshalFast([]byte(doc)); ok && m.Type != "" {
			t.Errorf("unmarshalFast(%q) accepted: %+v", doc, m)
		}
	}
}

// TestInvalidCharRefsRejected: on character references XML forbids (NUL,
// surrogates, beyond U+10FFFF) the fast path declines instead of
// guessing, so Unmarshal rejects the document.
func TestInvalidCharRefsRejected(t *testing.T) {
	for _, ref := range []string{"&#0;", "&#55296;", "&#x110000;", "&#xD800;", "&bogus;"} {
		doc := []byte(`<message type="notify"><var name="k">` + ref + `</var></message>`)
		if _, ok := unmarshalFast(doc); ok {
			t.Errorf("unmarshalFast accepted suspect reference %s instead of declining", ref)
		}
		if m, err := Unmarshal(doc); err == nil {
			t.Errorf("%s: Unmarshal accepted: %+v", ref, m)
		}
	}
	// Valid references still work on the fast path.
	doc := []byte(`<message type="notify"><var name="k">&#65;&#x1F600;&#x9;</var></message>`)
	m, ok := unmarshalFast(doc)
	if !ok || m.Vars["k"] != "A\U0001F600\t" {
		t.Fatalf("unmarshalFast(valid refs) = %+v, %v", m, ok)
	}
}
