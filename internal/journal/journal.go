// Package journal is the engine's durability substrate: a per-shard
// append-only write-ahead log of firing rounds, plus the passivation
// index that lets an idle instance live on disk instead of RAM
// (docs/durability.md).
//
// Each record describes one commit point of one instance — a
// notification arrival, a completed provider invocation, a firing
// round's bag delta and outbound messages, or a full bag snapshot
// (periodic, or terminal-for-now when the instance passivates). Records
// are framed [length|crc32|payload], the payload in the binary codec of
// codec.go, and sharded by (composite, instance),
// so every record of an instance lands in one shard file sequence and
// the shard's append mutex makes file order equal commit order for that
// instance. Recovery replays shards independently (engine.Recover);
// cross-shard order carries no meaning.
//
// The journal is deliberately clock-free on its decision paths: fsync
// batching is COUNT-based (every N appends), never timer-based, so a
// replayed history is bit-for-bit independent of scheduling. The
// injected Options.Now stamps records for observability only.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record kinds. Coordinator-side kinds carry State; wrapper-side kinds
// (the "w" prefix) do not.
const (
	// KindArrival is a notification accepted by a coordinator instance:
	// Src's variables merged into the instance bag, the source counter
	// bumped. Written BEFORE the arrival is applied (write-ahead).
	KindArrival = "arrival"
	// KindInvoke is a completed provider invocation: the idempotency Key
	// and the provider's Outputs. Replay primes service.Idempotent so a
	// re-fired round replays the response instead of re-executing.
	KindInvoke = "invoke"
	// KindRound is one firing round's effect on the instance: consumed
	// source counters, absorbed (cleared) source bags, the base-layer
	// delta, and the outbound messages with their dedup sequence numbers.
	// Written BEFORE the messages are flushed (write-ahead of sends).
	KindRound = "round"
	// KindSnapshot is a full coordinator-instance state image; replay
	// restarts from the newest one, and compaction drops what precedes it.
	KindSnapshot = "snapshot"
	// KindPassivate is a snapshot that also REMOVES the instance from
	// RAM: the journal's passive index keeps (segment, offset), and the
	// instance rehydrates from it on its next frame.
	KindPassivate = "passivate"
	// KindWStart is a wrapper execution admitted: the request inputs.
	KindWStart = "wstart"
	// KindWArrival is a termination/fault notice received by the wrapper.
	KindWArrival = "warrival"
	// KindWDone marks a wrapper execution finished (result delivered or
	// faulted); compaction drops every record of the instance.
	KindWDone = "wdone"
)

// OutMsg is one outbound notification recorded in a KindRound record —
// enough to redeliver it after a crash. The destination is the LOGICAL
// peer (a state ID or the wrapper ID), never a transport address:
// addresses change across restarts and are re-resolved at redelivery.
type OutMsg struct {
	Type string
	To   string
	Seq  uint64
	Vars map[string]string
}

// Record is one journal entry. One flat struct covers every kind; a
// kind leaves the fields it does not use zero.
type Record struct {
	Kind      string
	Composite string
	Instance  string
	State     string
	Version   uint64
	// Time is Options.Now at append, unix nanoseconds. Observability
	// only: nothing in replay or compaction reads it.
	Time int64

	// Arrival fields (also WArrival: Src + Seq + Vars + Error).
	Src string
	Seq uint64
	// Vars is the arrival's payload, the round's base-layer delta, the
	// snapshot's base layer, or the wstart's inputs — the "main bag" of
	// each kind.
	Vars map[string]string

	// Invoke fields.
	Service string
	Key     string
	Outputs map[string]string

	// Round fields.
	FireSeq  uint64
	Consumed []string // source counters decremented
	Cleared  []string // source bags absorbed into base
	SendSeq  uint64   // high-water after stamping Msgs
	Msgs     []OutMsg

	// Snapshot/passivate fields (Vars carries the base layer).
	Counts   map[string]uint32
	SrcVars  map[string]map[string]string
	LastSeen map[string]uint64

	// Error carries a fault's text (WArrival of a TypeFault, WDone of a
	// failed execution).
	Error string
}

// FsyncMode selects the durability/throughput trade of Append.
type FsyncMode int

const (
	// FsyncAlways syncs after every append: a record returned from
	// Append survives power loss. The default.
	FsyncAlways FsyncMode = iota
	// FsyncBatch syncs every Options.FsyncEvery appends (count-based,
	// never timer-based). An OS crash may lose the tail of a batch; a
	// process crash loses nothing (the OS holds the pages).
	FsyncBatch
	// FsyncOff never syncs (tests, CI): a process crash loses nothing,
	// an OS crash may lose anything unsynced.
	FsyncOff
)

// String returns the flag spelling of the mode.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// ParseFsyncMode parses the -fsync flag spelling.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync mode %q (want always, batch, or off)", s)
}

// Options configure a Journal.
type Options struct {
	// Dir is the journal directory; created if missing. Empty disables
	// durability entirely at the layers above (core.Options.Durability).
	Dir string
	// Fsync selects the sync policy (default FsyncAlways).
	Fsync FsyncMode
	// FsyncEvery is the batch size under FsyncBatch (default 32).
	FsyncEvery int
	// SnapshotEvery asks the engine to write a full instance snapshot
	// every N firing rounds (default 8). The journal only carries the
	// knob; the engine's commit points act on it.
	SnapshotEvery int
	// SegmentMaxBytes rotates a shard's segment beyond this size
	// (default 4 MiB, at most 4 GiB: the passive index packs offsets
	// into 32 bits).
	SegmentMaxBytes int64
	// Shards is the number of independent append streams (default 8).
	// Fixed at first Open of a directory: reopening with a different
	// count is an error.
	Shards int
	// Now stamps records (observability only). Defaults to time.Now.
	Now func() time.Time
}

// passiveKey groups the passive index by coordinator: one inner map per
// (composite, state), keyed by instance. The struct key lets Append
// probe the index without building a string.
type passiveKey struct{ composite, state string }

// packLoc packs a record's location, segment number << 32 | offset,
// into the one word the passive index stores per instance. Only the
// location lives in RAM — the bag stays in the segment file, which is
// the entire point of passivation.
func packLoc(seg uint64, off int64) (uint64, error) {
	if seg > math.MaxUint32 || off < 0 || off > math.MaxUint32 {
		return 0, fmt.Errorf("journal: location segment %d offset %d does not pack into 64 bits", seg, off)
	}
	return seg<<32 | uint64(off), nil
}

// shard is one independent append stream: a directory of numbered
// segment files plus the slice of the passive index whose keys hash
// here.
type shard struct {
	mu       sync.Mutex // lockorder:journal — leaf; taken under engine instance locks, never above any other repo mutex
	dir      string
	seg      *os.File // open segment (lazily created on first append)
	segNo    uint64   // number of the open segment
	segSize  int64
	nextSeg  uint64
	unsynced int
	closed   bool // set by Close: later writes fail instead of starting a segment
	// passive maps (composite, state) and instance to the packed
	// location (packLoc) of the instance's KindPassivate record. Guarded
	// by mu (the index slice is shard-local because records shard by
	// (composite, instance)). Empty inner maps stay: there is one per
	// coordinator, not per instance.
	passive map[passiveKey]map[string]uint64
	// existing are the segment paths found at Open, oldest first; appends
	// go to a fresh segment so a torn tail is never appended after.
	existing []string
}

// Journal is an open journal directory. Safe for concurrent use.
type Journal struct {
	opts   Options
	shards []*shard

	appends  atomic.Uint64
	syncs    atomic.Uint64
	bytes    atomic.Uint64
	replayed atomic.Uint64
}

// Stats are the journal's running counters.
type Stats struct {
	Appends  uint64 // records appended this process
	Syncs    uint64 // fsyncs issued
	Bytes    uint64 // bytes appended this process
	Passive  int    // instances currently passivated (index size)
	Segments int    // segment files on disk
}

// Open opens (creating if needed) the journal at opts.Dir, scans every
// existing segment to rebuild the passive index, and repairs a torn
// tail (a crash mid-append) by truncating the last segment of each
// shard to its last whole record. Corruption anywhere BUT a last
// segment's tail is an error — that is real damage, not a crash
// artifact — and so, anywhere, is a CRC-valid record that does not
// decode: a journal in another record format (v1 JSON) fails Open and
// is left untouched.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if opts.Fsync < FsyncAlways || opts.Fsync > FsyncOff {
		return nil, fmt.Errorf("journal: bad fsync mode %d", int(opts.Fsync))
	}
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 32
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 8
	}
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = 4 << 20
	}
	if opts.SegmentMaxBytes > math.MaxUint32+1 {
		return nil, fmt.Errorf("journal: segment size %d over the 4 GiB limit", opts.SegmentMaxBytes)
	}
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// The shard count is a property of the directory: records hash to
	// shards by (composite, instance), so reopening with a different
	// count would replay an instance's records out of their stream.
	existing, err := filepath.Glob(filepath.Join(opts.Dir, "shard-*"))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if n := len(existing); n > 0 && n != opts.Shards {
		return nil, fmt.Errorf("journal: %s holds %d shards, options say %d", opts.Dir, n, opts.Shards)
	}
	j := &Journal{opts: opts, shards: make([]*shard, opts.Shards)}
	for i := range j.shards {
		s := &shard{
			dir:     filepath.Join(opts.Dir, fmt.Sprintf("shard-%02d", i)),
			passive: map[passiveKey]map[string]uint64{},
		}
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if err := s.scan(); err != nil {
			return nil, err
		}
		j.shards[i] = s
	}
	return j, nil
}

// SnapshotEvery returns the snapshot cadence the engine should honor.
func (j *Journal) SnapshotEvery() int { return j.opts.SnapshotEvery }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.opts.Dir }

// shardFor hashes (composite, instance) onto a shard — state is NOT
// part of the key, so every coordinator's records for one instance
// (and the wrapper's) serialize through one stream.
func (j *Journal) shardFor(composite, instance string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(composite); i++ {
		h = (h ^ uint32(composite[i])) * 16777619
	}
	h = (h ^ 0) * 16777619
	for i := 0; i < len(instance); i++ {
		h = (h ^ uint32(instance[i])) * 16777619
	}
	return j.shards[h%uint32(len(j.shards))]
}

// framePool recycles Append's frame buffers. A buffer that grew past
// maxPooledFrame (a large snapshot) is dropped instead of pinned.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

const maxPooledFrame = 64 << 10

// Append writes r durably (per the fsync mode) and returns when it is
// committed. The record is encoded outside the shard lock into a pooled
// buffer that already holds its frame header, and lands with one write.
// The caller's instance lock orders the records of one instance; the
// shard mutex orders the file.
func (j *Journal) Append(r *Record) error {
	r.Time = j.opts.Now().UnixNano()
	bp := framePool.Get().(*[]byte)
	frame, err := appendRecord((*bp)[:frameHeader], r)
	if err == nil {
		err = sealFrame(frame)
	}
	if err == nil {
		s := j.shardFor(r.Composite, r.Instance)
		s.mu.Lock()
		err = s.commit(j, frame, r)
		s.mu.Unlock()
	}
	if cap(frame) <= maxPooledFrame {
		*bp = frame
		framePool.Put(bp)
	}
	return err
}

// commit writes one sealed frame, indexes its record, and syncs per the
// fsync mode. Caller holds s.mu.
func (s *shard) commit(j *Journal, frame []byte, r *Record) error {
	off, err := s.write(frame, j.opts)
	if err != nil {
		return err
	}
	if err := s.index(r, s.segNo, off); err != nil {
		return err
	}
	j.appends.Add(1)
	j.bytes.Add(uint64(len(frame)))
	if s.unsynced > 0 && (j.opts.Fsync == FsyncAlways || (j.opts.Fsync == FsyncBatch && s.unsynced >= j.opts.FsyncEvery)) {
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
		s.unsynced = 0
		j.syncs.Add(1)
	}
	return nil
}

// index applies r, found at (seg, off), to the passive index: a
// passivation record enters it, and any other record for the same
// (composite, state, instance) means the instance is live again. Open's
// scan, Append and Compact all apply this one rule. Caller holds s.mu.
func (s *shard) index(r *Record, seg uint64, off int64) error {
	key := passiveKey{r.Composite, r.State}
	if r.Kind != KindPassivate {
		delete(s.passive[key], r.Instance)
		return nil
	}
	loc, err := packLoc(seg, off)
	if err != nil {
		return err
	}
	m := s.passive[key]
	if m == nil {
		// Clone the keys: a decoded record's strings share one buffer
		// with its whole payload, which the index must not pin.
		m = map[string]uint64{}
		s.passive[passiveKey{strings.Clone(r.Composite), strings.Clone(r.State)}] = m
	}
	m[strings.Clone(r.Instance)] = loc
	return nil
}

// TakePassive removes an instance from the passive index and returns
// its passivation record — the rehydration path. ok is false when the
// instance is not passivated here.
func (j *Journal) TakePassive(composite, state, instance string) (*Record, bool, error) {
	s := j.shardFor(composite, instance)
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.passive[passiveKey{composite, state}]
	loc, ok := m[instance]
	if !ok {
		return nil, false, nil
	}
	r, err := readRecordAt(s.segPath(loc>>32), int64(loc&math.MaxUint32))
	if err != nil {
		return nil, false, fmt.Errorf("journal: rehydrate %s/%s/%s: %w", composite, state, instance, err)
	}
	delete(m, instance)
	return r, true, nil
}

// IsPassive reports whether the instance is currently passivated.
func (j *Journal) IsPassive(composite, state, instance string) bool {
	s := j.shardFor(composite, instance)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.passive[passiveKey{composite, state}][instance]
	return ok
}

// Replay streams every record on disk, shard by shard, in append order
// within each shard, stopping early if fn errors. Concurrent appends
// are excluded per shard (recovery runs before traffic anyway).
func (j *Journal) Replay(fn func(*Record) error) error {
	for _, s := range j.shards {
		s.mu.Lock()
		err := s.replay(func(r *Record) error {
			j.replayed.Add(1)
			return fn(r)
		})
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Compact rewrites each shard keeping only what recovery needs: for a
// finished instance (a KindWDone anywhere in the shard) nothing at all;
// for every other (composite, state, instance) the records from its
// newest snapshot/passivate onward (or all of them when it never
// snapshotted). The passive index is rebuilt at the new offsets.
func (j *Journal) Compact() error {
	for _, s := range j.shards {
		s.mu.Lock()
		err := s.compact(j.opts)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the running counters.
func (j *Journal) Stats() Stats {
	st := Stats{
		Appends: j.appends.Load(),
		Syncs:   j.syncs.Load(),
		Bytes:   j.bytes.Load(),
	}
	for _, s := range j.shards {
		s.mu.Lock()
		for _, m := range s.passive {
			st.Passive += len(m)
		}
		st.Segments += len(s.existing)
		if s.seg != nil {
			st.Segments++
		}
		s.mu.Unlock()
	}
	return st
}

// Close syncs and closes every open segment. Appends after Close fail:
// a closed journal never starts a segment, so a straggling goroutine of
// a shut-down (or killed) fabric cannot write into a directory a new
// process has opened.
func (j *Journal) Close() error {
	var first error
	for _, s := range j.shards {
		s.mu.Lock()
		s.closed = true
		if s.seg != nil {
			if err := s.closeSeg(j.opts); err != nil && first == nil {
				first = err
			}
		}
		s.mu.Unlock()
	}
	return first
}

// frameHeader is the per-record framing overhead: a little-endian
// uint32 payload length followed by the payload's CRC-32 (IEEE).
const frameHeader = 8

// maxRecordBytes bounds a single record frame — a sanity valve so a
// corrupt length word can't ask for a gigabyte allocation.
const maxRecordBytes = 16 << 20

// errTorn marks framing damage — a bad length word, a short frame, a
// CRC mismatch — which is what a crash mid-append leaves behind. Only
// errTorn on a shard's last segment is repaired by truncation; a frame
// whose CRC matches but whose payload does not decode is real damage
// (or a journal in another record format) and fails Open.
var errTorn = errors.New("torn frame")

// errClosed is what writes to a closed journal return.
var errClosed = errors.New("journal: closed")

// sealFrame fills in the header of frame, whose payload follows
// frameHeader reserved bytes.
func sealFrame(frame []byte) error {
	payload := frame[frameHeader:]
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return nil
}

// write lands one sealed frame on the shard's open segment with a
// single write, rotating first when over the size limit. Returns the
// frame's offset in the (possibly fresh) segment. Caller holds s.mu.
func (s *shard) write(frame []byte, opts Options) (int64, error) {
	if s.closed {
		return 0, errClosed
	}
	if s.seg == nil || s.segSize >= opts.SegmentMaxBytes {
		if err := s.rotate(opts); err != nil {
			return 0, err
		}
	}
	off := s.segSize
	if _, err := s.seg.Write(frame); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	s.segSize += int64(len(frame))
	s.unsynced++
	return off, nil
}

// segPath names segment n of the shard.
func (s *shard) segPath(n uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.wal", n))
}

// rotate closes the open segment (if any) and starts the next one.
// Caller holds s.mu.
func (s *shard) rotate(opts Options) error {
	if s.seg != nil {
		s.existing = append(s.existing, s.segPath(s.segNo))
		if err := s.closeSeg(opts); err != nil {
			return fmt.Errorf("journal: rotate: %w", err)
		}
	}
	if s.nextSeg > math.MaxUint32 {
		return fmt.Errorf("journal: rotate: shard %s is out of segment numbers", s.dir)
	}
	f, err := os.OpenFile(s.segPath(s.nextSeg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	s.seg = f
	s.segNo = s.nextSeg
	s.nextSeg++
	s.segSize = 0
	return nil
}

// closeSeg syncs (unless fsync is off) and closes the open segment,
// closing it even when the sync fails. Caller holds s.mu.
func (s *shard) closeSeg(opts Options) error {
	var err error
	if s.unsynced > 0 && opts.Fsync != FsyncOff {
		err = s.seg.Sync()
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.seg = nil
	s.unsynced = 0
	return err
}

// scan walks the shard's existing segments oldest-first: validates
// frames and records, rebuilds the passive index, truncates a torn tail
// on the LAST segment (crash artifact), and errors on damage anywhere
// else and on any record that does not decode. Appends after scan go to
// a fresh segment.
func (s *shard) scan() error {
	segs, err := filepath.Glob(filepath.Join(s.dir, "seg-*.wal"))
	if err != nil {
		return fmt.Errorf("journal: scan: %w", err)
	}
	// Segment names are zero-padded so the lexical sort is the numeric
	// order; nextSeg must clear the highest seen.
	sort.Strings(segs)
	s.existing = segs
	for i, path := range segs {
		// The passive index stores segment numbers and rebuilds paths
		// from them, so a name must round-trip through segPath.
		var n uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.wal", &n); err != nil || s.segPath(n) != path {
			return fmt.Errorf("journal: segment %s: bad name", path)
		}
		if n >= s.nextSeg {
			s.nextSeg = n + 1
		}
		validLen, err := walkSegment(path, func(off int64, r *Record, _ []byte) error {
			return s.index(r, n, off)
		})
		if err == nil {
			continue
		}
		if !errors.Is(err, errTorn) {
			return fmt.Errorf("journal: segment %s: %w", path, err)
		}
		if i != len(segs)-1 {
			return fmt.Errorf("journal: segment %s: %w (not the shard tail — real corruption, not a torn append)", path, err)
		}
		// Torn tail from a crash mid-append: repair by truncating to the
		// last whole record so later scans see a clean file.
		if terr := os.Truncate(path, validLen); terr != nil {
			return fmt.Errorf("journal: truncate torn tail of %s: %w", path, terr)
		}
	}
	return nil
}

// segments lists every segment path, oldest first, including the open
// one. Caller holds s.mu.
func (s *shard) segments() []string {
	segs := append([]string(nil), s.existing...)
	if s.seg != nil {
		segs = append(segs, s.segPath(s.segNo))
	}
	return segs
}

// replay streams the shard's records in order. The open (currently
// appended) segment is read via its path — the write fd's offset is
// untouched. Caller holds s.mu.
func (s *shard) replay(fn func(*Record) error) error {
	for _, path := range s.segments() {
		_, err := walkSegment(path, func(_ int64, r *Record, _ []byte) error { return fn(r) })
		if err != nil {
			return fmt.Errorf("journal: replay %s: %w", path, err)
		}
	}
	return nil
}

// compact rewrites the shard (see Journal.Compact). Caller holds s.mu.
func (s *shard) compact(opts Options) error {
	// Pass 1: find finished instances and each key's newest snapshot
	// position (counting records per key so pass 2 can cut precisely).
	type instKey struct{ composite, instance string }
	type stateKey struct{ composite, state, instance string }
	type cursor struct {
		n        int // records seen for this key
		snapshot int // 1-based index of the newest snapshot/passivate; 0 = none
	}
	done := map[instKey]bool{}
	cursors := map[stateKey]*cursor{}
	collect := func(r *Record) error {
		if r.Kind == KindWDone {
			done[instKey{r.Composite, r.Instance}] = true
		}
		key := stateKey{r.Composite, r.State, r.Instance}
		c := cursors[key]
		if c == nil {
			c = &cursor{}
			cursors[key] = c
		}
		c.n++
		if r.Kind == KindSnapshot || r.Kind == KindPassivate {
			c.snapshot = c.n
		}
		return nil
	}
	if err := s.replay(collect); err != nil {
		return err
	}

	// Pass 2: copy the keepers' frames, unchanged, into fresh segments
	// through the same single-write path as Append. The old segments
	// are removed only after the new ones are synced, so a crash during
	// compaction leaves either the old history or the new — never
	// neither. (A crash in between can leave BOTH; the keepers replay
	// twice, which recovery tolerates: arrivals dedup, rounds re-apply
	// onto snapshots idempotently.)
	old := s.segments()
	if s.seg != nil {
		if err := s.closeSeg(opts); err != nil {
			return err
		}
	}
	s.existing = nil
	s.passive = map[passiveKey]map[string]uint64{}
	seen := map[stateKey]int{}
	keep := func(_ int64, r *Record, frame []byte) error {
		if done[instKey{r.Composite, r.Instance}] {
			return nil
		}
		key := stateKey{r.Composite, r.State, r.Instance}
		seen[key]++
		if c := cursors[key]; c.snapshot != 0 && seen[key] < c.snapshot {
			return nil
		}
		off, err := s.write(frame, opts)
		if err != nil {
			return err
		}
		return s.index(r, s.segNo, off)
	}
	for _, path := range old {
		if _, err := walkSegment(path, keep); err != nil {
			return fmt.Errorf("journal: compact %s: %w", path, err)
		}
	}
	if s.seg != nil && opts.Fsync != FsyncOff {
		if err := s.seg.Sync(); err != nil {
			return err
		}
		s.unsynced = 0
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	return nil
}

// walkSegment streams a segment's decoded records with their offsets
// and whole frames (header included). It returns the byte length of
// the valid prefix and describes the first bad frame in err: framing
// damage wraps errTorn, a payload that does not decode does not. A
// clean EOF returns a nil error.
func walkSegment(path string, fn func(off int64, r *Record, frame []byte) error) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var off int64
	for int64(len(data))-off >= frameHeader {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxRecordBytes {
			return off, fmt.Errorf("%w: bad frame length %d at offset %d", errTorn, n, off)
		}
		if int64(len(data))-off-frameHeader < n {
			return off, fmt.Errorf("%w: truncated frame at offset %d", errTorn, off)
		}
		frame := data[off : off+frameHeader+n]
		if crc32.ChecksumIEEE(frame[frameHeader:]) != crc {
			return off, fmt.Errorf("%w: crc mismatch at offset %d", errTorn, off)
		}
		r, err := decodeRecord(frame[frameHeader:])
		if err != nil {
			return off, fmt.Errorf("record at offset %d: %w", off, err)
		}
		if err := fn(off, r, frame); err != nil {
			return off, err
		}
		off += frameHeader + n
	}
	if rem := int64(len(data)) - off; rem > 0 {
		return off, fmt.Errorf("%w: trailing %d bytes at offset %d", errTorn, rem, off)
	}
	return off, nil
}

// readRecordAt decodes the single record at (file, off) — the
// rehydration read.
func readRecordAt(path string, off int64) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [frameHeader]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxRecordBytes {
		return nil, fmt.Errorf("bad frame length %d at offset %d", n, off)
	}
	payload := make([]byte, n)
	if _, err := f.ReadAt(payload, off+frameHeader); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("crc mismatch at offset %d", off)
	}
	return decodeRecord(payload)
}

// FormatStats renders the stats for a -stats log line.
func (st Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "appends=%d syncs=%d bytes=%d passive=%d segments=%d",
		st.Appends, st.Syncs, st.Bytes, st.Passive, st.Segments)
	return sb.String()
}
