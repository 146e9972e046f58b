// Package wal is the segmented write-ahead log behind the stream engine's
// durable commit path. It is framing only: each record is a checksummed
// (CRC32C), length-prefixed frame holding a kind label, an edge width and
// count, and a payload of an uninterpreted head plus count*width edge
// bytes. The engine writes one Commit record per commit, whose head layout
// internal/stream owns. The log is a directory of segment files named by
// the first sequence number they contain, so truncating history after a
// checkpoint is deleting whole files. Purely-functional snapshots make the
// recovery contract simple: replaying the log's surviving prefix over the
// last checkpoint always reproduces some committed version exactly (batch
// application is a deterministic function of the record stream).
//
// Crash tolerance is tested, not assumed: every state-changing operation
// passes through an optional failpoint hook that can simulate the process
// dying at that instant (including mid-record, leaving a torn frame on
// disk). Replay stops cleanly at a torn or checksum-failed record in the
// final segment — the write that was in flight when the process died — and
// Open repairs the tail by truncating it back to the last valid frame
// boundary before appending resumes.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scratch"
)

// Kind labels a record's content. The log does not interpret it.
type Kind uint8

const (
	// Insert is a bare batch of edge insertions.
	Insert Kind = iota
	// Delete is a bare batch of edge deletions.
	Delete
	// Commit is one stream engine commit: a head of run and note tables,
	// then the edges (internal/stream owns the layout). Kinds 2 and 3,
	// the per-batch noted records, are no longer written.
	Commit Kind = 4
)

func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Commit:
		return "commit"
	}
	return fmt.Sprintf("kind %d", uint8(k))
}

// Record is one appended record.
type Record struct {
	// Seq is the record's sequence number; consecutive records have
	// consecutive numbers, starting at 1.
	Seq uint64
	// Kind labels the payload.
	Kind Kind
	// Width is the fixed encoded size of one edge update in Data (8 for
	// unweighted src+dst, 12 with a float32 weight).
	Width uint8
	// Count is the number of edge updates in Data.
	Count uint32
	// Data is the payload: a head of at most MaxHead bytes the log does
	// not interpret (none for Insert and Delete), then Count*Width edge
	// bytes. During Replay it aliases an internal buffer and is only valid
	// inside the callback.
	Data []byte
}

// ErrCrash is returned by a failpoint hook to simulate the process dying
// at that point: the in-flight operation is abandoned exactly as a kill -9
// would leave it (written bytes survive, buffered bytes are lost) and the
// log must not be used further except through Abort.
var ErrCrash = errors.New("wal: crash injected")

// ErrCorrupt reports unrecoverable log damage: a checksum or framing
// failure before the final segment's tail, where no in-flight write can
// explain it.
var ErrCorrupt = errors.New("wal: corrupt log")

// Failpoint is the crash-injection hook. It receives the operation about
// to run — "append" (before any byte of the frame), "append.partial"
// (after half the frame reached the file), "append.flush" (frame fully on
// disk, not yet synced), "sync" (before fsync), "truncate" (before each
// old segment is deleted) — and returning ErrCrash abandons it there.
type Failpoint func(op string) error

// Options tunes a Log. The zero value selects defaults.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size. Default 64 MiB.
	SegmentBytes int64
	// Fail, when set, is consulted at every kill point (crash-injection
	// tests). Nil disables.
	Fail Failpoint
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

const (
	segMagic   = 0x4C415741 // "AWAL", little-endian
	segVersion = 1
	headerSize = 20 // magic u32, version u32, firstSeq u64, crc u32
	frameHead  = 8  // payload length u32, payload crc u32
	recHead    = 16 // seq u64, kind u8, width u8, head length u16, count u32
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	// maxPayload bounds a frame's declared payload length during replay;
	// anything larger is framing damage, not a real record.
	maxPayload = 1 << 30
)

// MaxHead bounds the head a record's payload may carry ahead of its edges:
// the record states the head's length in 16 bits, so replay checks every
// frame's length exactly whatever its kind.
const MaxHead = 1<<16 - 1

// castagnoli is the CRC32C table (the checksum used throughout).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Stats is a point-in-time view of a Log's counters.
type Stats struct {
	// Appends is the number of records appended.
	Appends uint64 `json:"appends"`
	// Syncs is the number of explicit fsyncs.
	Syncs uint64 `json:"syncs"`
	// Bytes is the total frame bytes appended (headers included).
	Bytes uint64 `json:"bytes"`
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
}

// Log is an append-only segmented WAL opened on a directory. One writer
// appends; Sync may be called concurrently (the per-commit fsync runs it
// on the engine's sync goroutine beside the next apply, and a replication
// tail calls it too), so all file state is mutex-guarded.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	segStart uint64 // first seq of the current segment
	written  int64  // bytes written to the current segment
	closed   bool
	frame    []byte // frame scratch, at most scratch.Keep between appends

	// next (the seq the next append is assigned) and segments (live
	// segment files) are written under mu and read without it, so Stats,
	// NextSeq and a metrics scrape never wait out a Sync's fsync.
	next     atomic.Uint64
	segments atomic.Int64
	appends  atomic.Uint64
	syncs    atomic.Uint64
	bytes    atomic.Uint64
	// syncTime holds the duration of every successful Sync (flush +
	// fsync), whoever asked for it: a commit's own fsync stage shows only
	// the part its apply did not hide.
	syncTime obs.Hist
}

// Open opens dir for appending with nextSeq as the next sequence number
// (1 on an empty log; Replay's last record + 1 after recovery). The torn
// tail left by a crash, if any, is repaired — truncated back to the last
// valid frame boundary — and appending starts in a fresh segment, so a
// segment's name always states exactly where it begins.
func Open(dir string, nextSeq uint64, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if nextSeq == 0 {
		nextSeq = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := repairTail(dir); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	l.next.Store(nextSeq)
	l.segments.Store(int64(len(segs)))
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegment starts a new segment at l.next. Caller holds l.mu (or has
// exclusive access during Open).
func (l *Log) openSegment() error {
	path := filepath.Join(l.dir, segName(l.next.Load()))
	// A same-named segment can only exist if a previous process opened at
	// this seq and died before appending anything durable; truncating it
	// loses nothing (any surviving record would have advanced nextSeq).
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:], l.next.Load())
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], castagnoli))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	if l.bw == nil {
		l.bw = bufio.NewWriterSize(f, 1<<16)
	} else {
		l.bw.Reset(f)
	}
	l.segStart = l.next.Load()
	l.written = headerSize
	l.segments.Add(1)
	return nil
}

// rotate syncs and closes the current segment, then opens the next one.
func (l *Log) rotate() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment()
}

func (l *Log) fail(op string) error {
	if l.opts.Fail == nil {
		return nil
	}
	return l.opts.Fail(op)
}

// Append writes one record and returns its sequence number. The data
// slice is copied into the log's own framing buffer before any I/O, so
// callers may reuse it. Append alone does not guarantee durability — the
// record is buffered, then file-written; only Sync (or rotation/Close)
// forces it to stable storage.
func (l *Log) Append(kind Kind, width uint8, count uint32, data []byte) (uint64, error) {
	seq, _, err := l.AppendFill(kind, width, count, len(data), func(p []byte) { copy(p, data) })
	return seq, err
}

// AppendFill is Append without the copy: fill writes the size-byte payload
// straight into the frame. A payload is count*width edge bytes after a head
// of size-count*width bytes, which must be at most MaxHead. The returned
// payload aliases the log's frame buffer and is valid until the next
// append — what a commit-path observer is handed. A frame above scratch.Keep is released once written (the
// returned slice is then its only reference); smaller ones are reused.
func (l *Log) AppendFill(kind Kind, width uint8, count uint32, size int, fill func(payload []byte)) (uint64, []byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, nil, errors.New("wal: closed")
	}
	if err := l.fail("append"); err != nil {
		return 0, nil, err
	}
	head := size - int(count)*int(width)
	if head < 0 || head > MaxHead {
		return 0, nil, fmt.Errorf("wal: %d-byte payload for %d edges of %d bytes leaves a head of %d", size, count, width, head)
	}
	payload := recHead + size
	if need := frameHead + payload; cap(l.frame) < need {
		l.frame = make([]byte, 0, scratch.Cap(need))
	}
	fr := l.frame[:frameHead+payload]
	binary.LittleEndian.PutUint32(fr[0:], uint32(payload))
	binary.LittleEndian.PutUint64(fr[8:], l.next.Load())
	fr[16] = byte(kind)
	fr[17] = width
	binary.LittleEndian.PutUint16(fr[18:], uint16(head))
	binary.LittleEndian.PutUint32(fr[20:], count)
	fill(fr[frameHead+recHead:])
	binary.LittleEndian.PutUint32(fr[4:], crc32.Checksum(fr[8:], castagnoli))

	if l.written+int64(len(fr)) > l.opts.SegmentBytes && l.written > headerSize {
		if err := l.rotate(); err != nil {
			return 0, nil, err
		}
	}
	if err := l.fail("append.partial"); err != nil {
		// Simulate dying mid-write: half the frame reaches the file (a
		// torn record for recovery to tolerate), the rest never existed.
		n := len(fr) / 2
		if _, werr := l.bw.Write(fr[:n]); werr == nil {
			l.bw.Flush()
		}
		return 0, nil, err
	}
	if _, err := l.bw.Write(fr); err != nil {
		return 0, nil, err
	}
	l.frame = scratch.Trim(l.frame) // bufio copied or wrote every byte
	seq := l.next.Add(1) - 1
	l.written += int64(len(fr))
	l.appends.Add(1)
	l.bytes.Add(uint64(len(fr)))
	if err := l.fail("append.flush"); err != nil {
		// Frame fully written: flush it to the file (surviving a process
		// death) but report the crash before the caller can ack.
		l.bw.Flush()
		return 0, nil, err
	}
	return seq, fr[frameHead+recHead:], nil
}

// Sync flushes buffered frames and fsyncs the current segment. A record
// is durable against power loss only after its Append was followed by a
// Sync (the per-commit fsync policy); against process death alone, the
// flush suffices.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	if err := l.fail("sync"); err != nil {
		// Crash before fsync: whatever was buffered still reaches the OS
		// (a process death loses user-space buffers only at the instant of
		// the kill; this point models dying inside the sync call).
		l.bw.Flush()
		return err
	}
	start := time.Now()
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs.Add(1)
	l.syncTime.Observe(time.Since(start))
	return nil
}

// NextSeq returns the sequence number the next Append will be assigned.
func (l *Log) NextSeq() uint64 { return l.next.Load() }

// Close flushes, fsyncs and closes the log (a clean shutdown).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.bw.Flush(); err != nil {
		l.f.Close()
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Abort closes the log without flushing or syncing — the teardown path
// after an injected crash, modeling the process dying with its user-space
// buffer: bytes already written to the file survive, buffered bytes are
// lost.
func (l *Log) Abort() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.bw.Reset(io.Discard)
	l.f.Close()
}

// TruncateBefore deletes every segment whose records all have seq <= seq —
// those made redundant by a checkpoint at seq. A segment's upper bound is
// the next segment's first seq, so only segments strictly below the
// following one's start are removed and the active segment never is.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	removed := false
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].first > seq+1 {
			break
		}
		if segs[i].first == l.segStart {
			break // never the active segment
		}
		if err := l.fail("truncate"); err != nil {
			return err
		}
		if err := os.Remove(segs[i].path); err != nil {
			return err
		}
		l.segments.Add(-1)
		removed = true
	}
	if removed {
		return syncDir(l.dir)
	}
	return nil
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:  l.appends.Load(),
		Syncs:    l.syncs.Load(),
		Bytes:    l.bytes.Load(),
		Segments: int(l.segments.Load()),
	}
}

// OldestSeq returns the first sequence number still covered by dir's
// on-disk segments (the oldest segment's header firstSeq), or 0 when
// the directory holds no segments. Replay(dir, after, ...) can only
// produce a gap-free stream when after+1 >= OldestSeq; callers that
// resume from an older point (a lagging tail subscriber after
// checkpoint truncation) must bootstrap from a snapshot instead.
func OldestSeq(dir string) (uint64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	if len(segs) == 0 {
		return 0, nil
	}
	return segs[0].first, nil
}

type segment struct {
	path  string
	first uint64
}

// listSegments returns the directory's segment files sorted by first seq.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// syncDir fsyncs a directory so entry creations/removals are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
