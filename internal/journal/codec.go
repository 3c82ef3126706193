package journal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the v2 record codec: the payload inside each
// [length|crc32] frame. The layout is
//
//	format byte (0x02) | kind code | every other Record field
//
// The fields follow in the fixed order of appendRecord. Strings are a
// uvarint length and the bytes, integers are uvarints (Time is a zigzag
// varint), lists and maps are a uvarint count and their elements (a map
// entry is key then value). An OutMsg is its four fields, Type, To,
// Seq, Vars. An unset field costs one byte.
//
// Map entries are written in Go's map iteration order, so the same
// record may encode to different bytes on two appends. The contract is
// equality of the DECODED record: decode(encode(r)) equals r up to
// empty maps and slices, which (as under JSON's omitempty in the v1
// format) decode as nil.
//
// A v1 payload is JSON and starts with '{'; decoding it fails with an
// unsupported-record-format error, so a v1 journal refuses to open
// rather than being mistaken for a torn tail.

// recordFormat is the first byte of every v2 payload.
const recordFormat = 0x02

// kinds maps a kind code to its Kind string; code 0 is invalid.
var kinds = [...]string{
	1: KindArrival,
	2: KindInvoke,
	3: KindRound,
	4: KindSnapshot,
	5: KindPassivate,
	6: KindWStart,
	7: KindWArrival,
	8: KindWDone,
}

func kindCode(k string) (byte, bool) {
	for code, name := range kinds {
		if code > 0 && name == k {
			return byte(code), true
		}
	}
	return 0, false
}

// appendRecord appends r's payload to b. It fails only on an unknown
// Kind.
func appendRecord(b []byte, r *Record) ([]byte, error) {
	code, ok := kindCode(r.Kind)
	if !ok {
		return b, fmt.Errorf("journal: unknown record kind %q", r.Kind)
	}
	b = append(b, recordFormat, code)
	b = appendString(b, r.Composite)
	b = appendString(b, r.Instance)
	b = appendString(b, r.State)
	b = binary.AppendUvarint(b, r.Version)
	b = binary.AppendVarint(b, r.Time)
	b = appendString(b, r.Src)
	b = binary.AppendUvarint(b, r.Seq)
	b = appendVars(b, r.Vars)
	b = appendString(b, r.Service)
	b = appendString(b, r.Key)
	b = appendVars(b, r.Outputs)
	b = binary.AppendUvarint(b, r.FireSeq)
	b = appendStrings(b, r.Consumed)
	b = appendStrings(b, r.Cleared)
	b = binary.AppendUvarint(b, r.SendSeq)
	b = binary.AppendUvarint(b, uint64(len(r.Msgs)))
	for i := range r.Msgs {
		m := &r.Msgs[i]
		b = appendString(b, m.Type)
		b = appendString(b, m.To)
		b = binary.AppendUvarint(b, m.Seq)
		b = appendVars(b, m.Vars)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Counts)))
	for k, v := range r.Counts {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = binary.AppendUvarint(b, uint64(len(r.SrcVars)))
	for k, v := range r.SrcVars {
		b = appendString(b, k)
		b = appendVars(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(r.LastSeen)))
	for k, v := range r.LastSeen {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, v)
	}
	return appendString(b, r.Error), nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendVars(b []byte, m map[string]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for k, v := range m {
		b = appendString(b, k)
		b = appendString(b, v)
	}
	return b
}

// decodeRecord decodes one payload. It is strict: an unknown format
// byte or kind code, a malformed field, or bytes left over after the
// last field are all errors.
func decodeRecord(payload []byte) (*Record, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("short record (%d bytes)", len(payload))
	}
	if payload[0] != recordFormat {
		return nil, fmt.Errorf("unsupported record format 0x%02x (want 0x%02x; journals written before the binary codec do not open)",
			payload[0], recordFormat)
	}
	code := payload[1]
	if int(code) >= len(kinds) || kinds[code] == "" {
		return nil, fmt.Errorf("unknown record kind code %d", code)
	}
	// One string conversion per record: every decoded string is a
	// substring of it, so a record costs one string allocation however
	// many fields it has.
	d := decoder{src: string(payload[2:])}
	r := &Record{Kind: kinds[code]}
	r.Composite = d.string()
	r.Instance = d.string()
	r.State = d.string()
	r.Version = d.uvarint()
	r.Time = d.varint()
	r.Src = d.string()
	r.Seq = d.uvarint()
	r.Vars = d.vars()
	r.Service = d.string()
	r.Key = d.string()
	r.Outputs = d.vars()
	r.FireSeq = d.uvarint()
	r.Consumed = d.strings()
	r.Cleared = d.strings()
	r.SendSeq = d.uvarint()
	if n := d.count(4); n > 0 {
		r.Msgs = make([]OutMsg, n)
		for i := range r.Msgs {
			m := &r.Msgs[i]
			m.Type = d.string()
			m.To = d.string()
			m.Seq = d.uvarint()
			m.Vars = d.vars()
		}
	}
	if n := d.count(2); n > 0 {
		r.Counts = make(map[string]uint32, n)
		for i := 0; i < n; i++ {
			k := d.string()
			v := d.uvarint()
			if v > math.MaxUint32 {
				d.fail("counter %d overflows uint32", v)
			}
			r.Counts[k] = uint32(v)
		}
	}
	if n := d.count(2); n > 0 {
		r.SrcVars = make(map[string]map[string]string, n)
		for i := 0; i < n; i++ {
			k := d.string()
			r.SrcVars[k] = d.vars()
		}
	}
	if n := d.count(2); n > 0 {
		r.LastSeen = make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			k := d.string()
			r.LastSeen[k] = d.uvarint()
		}
	}
	r.Error = d.string()
	if d.err != nil {
		return nil, d.err
	}
	if rest := len(d.src) - d.off; rest > 0 {
		return nil, fmt.Errorf("%d trailing bytes after the record", rest)
	}
	return r, nil
}

// decoder reads fields off a payload. The first error sticks: every
// later read returns a zero value, and decodeRecord reports it once.
type decoder struct {
	src string
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.off = len(d.src)
}

func (d *decoder) uvarint() uint64 {
	var x uint64
	for shift := 0; shift < 64; shift += 7 {
		if d.off >= len(d.src) {
			d.fail("truncated varint")
			return 0
		}
		c := d.src[d.off]
		d.off++
		if c < 0x80 {
			if shift == 63 && c > 1 {
				d.fail("varint overflows uint64")
				return 0
			}
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
	}
	d.fail("varint overflows uint64")
	return 0
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a list or map length whose elements each take at least
// min bytes. A count the remaining bytes cannot hold is corrupt;
// checking it here keeps a bad count from sizing a huge allocation.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if left := uint64(len(d.src) - d.off); n > left/uint64(min) {
		d.fail("count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count(1)
	s := d.src[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) strings() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.string()
	}
	return ss
}

func (d *decoder) vars() map[string]string {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.string()
		m[k] = d.string()
	}
	return m
}
