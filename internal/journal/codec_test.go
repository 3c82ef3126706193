package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fullRecords is one record per Kind with every field populated — the
// codec writes whatever a record sets, whatever its kind.
func fullRecords() []*Record {
	var out []*Record
	for _, kind := range kinds[1:] {
		out = append(out, &Record{
			Kind: kind, Composite: "Travel", Instance: "i-42", State: "s1", Version: 3,
			Time: -fixedNow().UnixNano(),
			Src:  "w", Seq: 1 << 40,
			Vars:    map[string]string{"x": "1", "w€ird": "\x00<&>\"", "": ""},
			Service: "svc/op", Key: "Travel/i-42/s1/1",
			Outputs:  map[string]string{"ref": "QF-1"},
			FireSeq:  7,
			Consumed: []string{"w", "s0"},
			Cleared:  []string{"w"},
			SendSeq:  9,
			Msgs: []OutMsg{
				{Type: "notify", To: "s2", Seq: 8, Vars: map[string]string{"x": "2"}},
				{Type: "done", To: "wrapper", Seq: 9},
			},
			Counts:   map[string]uint32{"w": 1<<32 - 1, "s0": 1},
			SrcVars:  map[string]map[string]string{"w": {"y": "2"}, "s0": nil},
			LastSeen: map[string]uint64{"w": 5, "s0": 1<<64 - 1},
			Error:    "engine: boom",
		})
	}
	return out
}

func encode(t testing.TB, r *Record) []byte {
	t.Helper()
	b, err := appendRecord(nil, r)
	if err != nil {
		t.Fatalf("encode %s: %v", r.Kind, err)
	}
	return b
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for _, r := range fullRecords() {
		got, err := decodeRecord(encode(t, r))
		if err != nil {
			t.Fatalf("decode %s: %v", r.Kind, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", r.Kind, got, r)
		}
	}

	// Empty maps and slices decode as nil, as JSON omitempty did.
	empty := &Record{
		Kind: KindRound, Composite: "c", Instance: "i",
		Vars: map[string]string{}, Consumed: []string{}, Msgs: []OutMsg{},
		Counts: map[string]uint32{}, SrcVars: map[string]map[string]string{}, LastSeen: map[string]uint64{},
	}
	got, err := decodeRecord(encode(t, empty))
	if err != nil {
		t.Fatal(err)
	}
	want := &Record{Kind: KindRound, Composite: "c", Instance: "i"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty collections decode as %+v, want %+v", got, want)
	}
	// Inside a message or a bag, an empty map is nil too.
	nested := &Record{Kind: KindRound, Msgs: []OutMsg{{Type: "notify", Vars: map[string]string{}}},
		SrcVars: map[string]map[string]string{"w": {}}}
	if got, err = decodeRecord(encode(t, nested)); err != nil {
		t.Fatal(err)
	}
	if got.Msgs[0].Vars != nil || got.SrcVars["w"] != nil {
		t.Fatalf("nested empty maps decode as %+v", got)
	}

	if _, err := appendRecord(nil, &Record{Kind: "bogus"}); err == nil {
		t.Fatal("encoded a record of unknown kind")
	}
}

func TestRecordDecodeRejects(t *testing.T) {
	good := encode(t, fullRecords()[0])
	// withCount is an arrival whose only set field is Counts["w"], the
	// counter encoded as the given varint bytes.
	withCount := func(varint ...byte) []byte {
		b := append([]byte{recordFormat, 1}, make([]byte, 16)...) // Composite .. Msgs, all empty
		b = append(b, 1, 1, 'w')
		b = append(b, varint...)
		return append(b, 0, 0, 0) // SrcVars, LastSeen, Error
	}
	if r, err := decodeRecord(withCount(0x80, 0x80, 0x80, 0x80, 0x0f)); err != nil || r.Counts["w"] != 0xf0000000 {
		t.Fatalf("hand-built record: %+v, %v", r, err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"v1 json":        []byte(`{"k":"arrival","c":"c","i":"i1"}`),
		"kind code 0":    {recordFormat, 0, 0},
		"kind code 9":    {recordFormat, 9, 0},
		"no fields":      {recordFormat, 1},
		"trailing byte":  append(append([]byte(nil), good...), 0),
		"truncated":      good[:len(good)-1],
		"huge count":     {recordFormat, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"counter > 2^32": withCount(0x80, 0x80, 0x80, 0x80, 0x10),
		"varint > 2^64":  {recordFormat, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	}
	for name, b := range cases {
		if r, err := decodeRecord(b); err == nil {
			t.Errorf("%s: decoded %+v", name, r)
		}
	}
	if _, err := decodeRecord(cases["v1 json"]); err == nil || !strings.Contains(err.Error(), "record format") {
		t.Fatalf("v1 payload error %v does not name the record format", err)
	}
}

// FuzzRecordDecode holds the decoder to its contract on arbitrary
// payloads: never panic; reject trailing bytes; and for every payload
// that decodes, re-encoding the record and decoding again gives the
// same record (the decoder never fabricates state the encoder cannot
// represent). Run with
//
//	go test ./internal/journal -run '^$' -fuzz FuzzRecordDecode -fuzztime 30s
func FuzzRecordDecode(f *testing.F) {
	for _, r := range fullRecords() {
		f.Add(encode(f, r))
	}
	f.Add(encode(f, &Record{Kind: KindWDone, Composite: "c", Instance: "i"}))
	f.Add([]byte(`{"k":"arrival","c":"c","i":"i1"}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRecord(b)
		if err != nil {
			return
		}
		if _, err := decodeRecord(append(b[:len(b):len(b)], 0)); err == nil {
			t.Fatal("decoded a payload with a trailing byte")
		}
		again, err := decodeRecord(encode(t, r))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("decode(encode(decode(b))) = %+v, decode(b) = %+v", again, r)
		}
	})
}

// TestOpenRejectsV1Journal: a journal written in the v1 JSON format has
// whole, CRC-valid frames whose payloads do not decode. Open must fail
// naming the record format and leave the files alone — truncating the
// "torn tail" would silently destroy the old history.
func TestOpenRejectsV1Journal(t *testing.T) {
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shard-00")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for _, payload := range []string{
		`{"k":"wstart","c":"c","i":"i1","t":1700000000000000042,"vars":{"x":"0"}}`,
		`{"k":"arrival","c":"c","i":"i1","s":"s1","t":1700000000000000042,"src":"w","seq":1}`,
	} {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payload)))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE([]byte(payload)))
		seg = append(seg, payload...)
	}
	path := filepath.Join(shardDir, "seg-00000000.wal")
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(Options{Dir: dir, Fsync: FsyncOff, Shards: 1, Now: fixedNow})
	if err == nil {
		j.Close()
		t.Fatal("Open accepted a v1 journal")
	}
	if !strings.Contains(err.Error(), "record format") {
		t.Fatalf("Open error %q does not name the record format", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, seg) {
		t.Fatalf("Open changed the v1 segment (%d bytes, was %d; err %v)", len(data), len(seg), err)
	}
}

// warmRecords are the three records every Chain step appends: an
// arrival, a completed invocation and a firing round.
func warmRecords() []*Record {
	vars := map[string]string{"x": "41", "dest": "melbourne"}
	return []*Record{
		{Kind: KindArrival, Composite: "Chain8", State: "s3", Instance: "inst-000123", Version: 1,
			Src: "s2", Seq: 1, Vars: vars},
		{Kind: KindInvoke, Composite: "Chain8", State: "s3", Instance: "inst-000123", Version: 1,
			Service: "svc3", Key: "Chain8/inst-000123/s3/1", Outputs: map[string]string{"x": "42"}},
		{Kind: KindRound, Composite: "Chain8", State: "s3", Instance: "inst-000123", Version: 1,
			FireSeq: 1, Consumed: []string{"s2"}, Cleared: []string{"s2"}, Vars: map[string]string{"x": "42"},
			SendSeq: 1, Msgs: []OutMsg{{Type: "notify", To: "s4", Seq: 1, Vars: map[string]string{"x": "42", "dest": "melbourne"}}}},
	}
}

// appendAllocs pins the measured heap allocations of one warm Append
// per record kind: encoding, framing, the write and the passive-index
// probe allocate nothing.
var appendAllocs = map[string]float64{KindArrival: 0, KindInvoke: 0, KindRound: 0}

func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	j := openTest(t, Options{Fsync: FsyncOff, Shards: 2})
	for _, r := range warmRecords() {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		})
		if want := appendAllocs[r.Kind]; got != want {
			t.Errorf("Append(%s): %v allocs, want %v", r.Kind, got, want)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	j, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncOff, Now: fixedNow})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	recs := warmRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	j, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncOff, Now: fixedNow})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	const execs = 300
	for i := 0; i < execs; i++ {
		for _, r := range warmRecords() {
			r.Instance = "inst-" + strconv.Itoa(i)
			if err := j.Append(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if err := j.Replay(func(*Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "records/s")
}
