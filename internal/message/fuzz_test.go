package message

// Fuzz targets for the wire decoders. The decode side accepts arbitrary
// bytes off TCP connections, so the contract under fuzzing is: never
// panic, never over-allocate on corrupt headers, and for every payload
// that DOES decode, re-encoding the decoded messages round-trips to the
// same values (the decoder never fabricates state it cannot represent).
// FuzzUnmarshal also holds every accepted document to the encoding/xml
// oracle: the oracle must accept it and decode the same message.
//
// Seeds cover both payload kinds the decoders must handle: legacy
// single-document XML frames (still what Send emits) and v2
// count-prefixed batch frames, plus corrupt variants of each.
//
// Run locally with:
//
//	go test ./internal/message -run '^$' -fuzz FuzzUnmarshal -fuzztime 30s
//	go test ./internal/message -run '^$' -fuzz FuzzUnmarshalBatch -fuzztime 30s
//	go test ./internal/message -run '^$' -fuzz FuzzMergeBatch -fuzztime 30s
//
// (make fuzz runs all three; CI gives each 30s per push.)

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// seedMessages is a small vocabulary-spanning corpus.
func seedMessages() []*Message {
	return []*Message{
		{Type: TypeStart, Composite: "C", Instance: "i1", From: WrapperID, To: "s1",
			Vars: map[string]string{"x": "1"}},
		{Type: TypeNotify, Composite: "Travel", Instance: "i2", From: "s1", To: "s2", Seq: 7,
			Vars: map[string]string{"dest": "sydney", "w€ird": "<&>\"'\x09"}},
		{Type: TypeDone, Composite: "C", Instance: "i3", From: "s2", To: WrapperID},
		{Type: TypeFault, Composite: "C", Instance: "i4", From: "s1", To: WrapperID,
			Error: "engine: boom"},
		{Type: TypeInvoke, Composite: "C", Instance: "i5", To: "Svc/op", ReplyTo: "127.0.0.1:9",
			Vars: map[string]string{"a": "", "b": "2"}},
		{Type: TypeResult, Composite: "C", Instance: "i6", From: "Svc/op"},
	}
}

func addSeeds(f *testing.F) {
	f.Helper()
	for _, m := range seedMessages() {
		data, err := Marshal(m)
		if err != nil {
			f.Fatalf("seed marshal: %v", err)
		}
		f.Add(data)
	}
	batch, err := MarshalBatch(seedMessages())
	if err != nil {
		f.Fatalf("seed batch marshal: %v", err)
	}
	f.Add(batch)
	two, err := MarshalBatch(seedMessages()[:2])
	if err != nil {
		f.Fatalf("seed batch marshal: %v", err)
	}
	f.Add(two)
	// Corrupt variants: truncations, a lying batch count, stray NULs.
	f.Add(batch[:len(batch)/2])
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add([]byte("<message"))
	f.Add([]byte("  <message></message>"))
	f.Add([]byte{})
}

// FuzzUnmarshal fuzzes the single-document decoder (the legacy payload
// every v1 peer still emits).
func FuzzUnmarshal(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		// Whatever the production decoder accepts, the encoding/xml
		// oracle must accept and decode to the same message.
		ref, err := unmarshalXML(data)
		if err != nil {
			t.Fatalf("Unmarshal accepted a document the oracle rejects: %v\n%q", err, data)
		}
		if !reflect.DeepEqual(normalize(m), normalize(ref)) {
			t.Fatalf("Unmarshal disagrees with the oracle:\n got: %+v\nwant: %+v\ndoc: %q", m, ref, data)
		}
		// Accepted payloads must round-trip by value.
		re, err := Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal of accepted decode failed: %v\n(message: %+v)", err, m)
		}
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("decode of re-marshal failed: %v", err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(m2)) {
			t.Fatalf("round-trip diverged:\n first: %+v\nsecond: %+v", m, m2)
		}
	})
}

// FuzzUnmarshalBatch fuzzes the dual-format frame decoder (batch OR
// legacy, discriminated by the leading byte) — the single decode entry
// point of both transports' read paths.
func FuzzUnmarshalBatch(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := UnmarshalBatch(data)
		if err != nil {
			return
		}
		if len(ms) == 0 {
			t.Fatal("UnmarshalBatch accepted a payload but returned zero messages")
		}
		re, err := MarshalBatch(ms)
		if err != nil {
			t.Fatalf("re-marshal of accepted batch failed: %v", err)
		}
		ms2, err := UnmarshalBatch(re)
		if err != nil {
			t.Fatalf("decode of re-marshal failed: %v", err)
		}
		if len(ms) != len(ms2) {
			t.Fatalf("round-trip count diverged: %d then %d", len(ms), len(ms2))
		}
		for i := range ms {
			if !reflect.DeepEqual(normalize(ms[i]), normalize(ms2[i])) {
				t.Fatalf("round-trip message %d diverged:\n first: %+v\nsecond: %+v", i, ms[i], ms2[i])
			}
		}
		// A batch of one must stay byte-identical to the legacy encoding
		// (the compatibility clause of the wire format).
		if len(ms) == 1 {
			legacy, err := Marshal(ms[0])
			if err != nil {
				t.Fatalf("legacy re-marshal failed: %v", err)
			}
			if !bytes.Equal(re, legacy) {
				t.Fatalf("batch-of-one encoding differs from legacy:\nbatch:  %q\nlegacy: %q", re, legacy)
			}
		}
	})
}

// FuzzMergeBatch fuzzes the writer-side frame merge (merge.go) with
// PAIRS of payloads. The contract: two payloads that each decode must
// merge, and the merge decodes to the concatenation of their messages;
// payloads with corrupt framing are rejected without panic and without
// partial output.
func FuzzMergeBatch(f *testing.F) {
	var seeds [][]byte
	for _, m := range seedMessages() {
		data, err := Marshal(m)
		if err != nil {
			f.Fatalf("seed marshal: %v", err)
		}
		seeds = append(seeds, data)
	}
	batch, err := MarshalBatch(seedMessages())
	if err != nil {
		f.Fatalf("seed batch marshal: %v", err)
	}
	seeds = append(seeds, batch, batch[:len(batch)/2],
		[]byte{0x00}, []byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		[]byte("<message"), []byte{})
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		wantA, errA := UnmarshalBatch(a)
		wantB, errB := UnmarshalBatch(b)
		merged, count, err := MergeBatch([][]byte{a, b})
		if errA != nil || errB != nil {
			// At least one input does not decode. The merge may accept it
			// anyway (framing can be valid around an undecodable document —
			// document bytes are deliberately not parsed here), but it must
			// never panic; rejection must be ErrMergeCorrupt or ErrEmptyBatch.
			if err != nil && !errors.Is(err, ErrMergeCorrupt) && !errors.Is(err, ErrEmptyBatch) {
				t.Fatalf("unexpected merge error kind: %v", err)
			}
			return
		}
		// Both inputs decode -> their framing is valid -> merge MUST work.
		if err != nil {
			t.Fatalf("merge of two decodable payloads failed: %v", err)
		}
		want := append(append([]*Message{}, wantA...), wantB...)
		if count != len(want) {
			t.Fatalf("merge count = %d, want %d", count, len(want))
		}
		got, err := UnmarshalBatch(merged)
		if err != nil {
			t.Fatalf("decode of merged payload failed: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("merged decode has %d messages, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(normalize(got[i]), normalize(want[i])) {
				t.Fatalf("merged message %d diverged:\n got: %+v\nwant: %+v", i, got[i], want[i])
			}
		}
	})
}
