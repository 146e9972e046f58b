package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/graphio"
	"repro/internal/ligra"
	"repro/internal/wal"
)

// This file is the durable commit path: every coalesced commit appends one
// commit frame to a segmented WAL (internal/wal) before the snapshot is published
// and the batches acknowledged, a background checkpointer periodically
// persists a full snapshot (internal/graphio) and truncates the log behind
// it, and Recover reopens a directory by loading the newest valid
// checkpoint and replaying the log tail. Purely-functional snapshots make
// the whole design cheap: batch application is deterministic, so replaying
// the surviving record stream over a checkpoint reproduces a committed
// state exactly, and the checkpointer works from a pinned immutable version
// with zero coordination against the writer.

// SyncPolicy selects when the WAL is fsynced.
type SyncPolicy int

const (
	// SyncEveryCommit fsyncs each commit's frame before the commit is
	// published or acknowledged: an acked batch survives power loss. The
	// fsync runs on the engine's sync goroutine beside the commit's apply,
	// so it adds to a commit's latency only what outlasts the apply.
	SyncEveryCommit SyncPolicy = iota
	// SyncOff never fsyncs outside rotation, checkpoint and Close: an acked
	// batch survives process death only once its buffered frame reaches the
	// file (rotation, or the flush on Close and checkpoint).
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryCommit:
		return "per-commit"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the flag spellings to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "per-commit", "commit":
		return SyncEveryCommit, nil
	case "off", "none":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("stream: unknown fsync policy %q (want per-commit or off)", s)
}

// Durability configures the durable commit path. The zero Dir disables it.
type Durability struct {
	// Dir is the data directory holding WAL segments and checkpoints.
	Dir string
	// Policy selects the fsync policy. Default SyncEveryCommit.
	Policy SyncPolicy
	// CheckpointEvery requests a checkpoint after this many commits
	// (skipped while one is already in flight). Default 256.
	CheckpointEvery int
	// SegmentBytes is the WAL segment rotation size (wal.Options).
	SegmentBytes int64
	// Fail is the crash-injection hook, consulted at every WAL kill point
	// plus "checkpoint" (before a checkpoint file is written). Nil in
	// production.
	Fail wal.Failpoint
	// OnReplayNote, when set, observes every note in the note table of
	// each commit frame replayed during Recover, in log order and, within
	// a commit, in submit order — how the distributed layer's per-client
	// dedup window survives a restart. Frames covered by the checkpoint
	// are not replayed; notes older than the checkpoint horizon are gone,
	// which is why the dedup window must be sized under the checkpoint
	// cadence (see DESIGN.md).
	OnReplayNote func(client, seq uint64)
}

// keepCheckpoints is how many newest checkpoint files a durable engine
// retains; older ones are pruned after each new checkpoint lands. Two lets
// recovery fall back from a damaged newest checkpoint to the one before.
const keepCheckpoints = 2

func (d Durability) withDefaults() Durability {
	if d.CheckpointEvery <= 0 {
		d.CheckpointEvery = 256
	}
	return d
}

// Codec fixes the WAL wire format of one edge-update type: Width bytes per
// update, little-endian.
type Codec[E any] struct {
	Width  int
	Encode func(dst []byte, e E)
	Decode func(src []byte) E
}

// EdgeCodecOf encodes aspen.EdgeOf[V] as src u32, dst u32, then V's
// little-endian image (aspen.PutPayload): 8 bytes an edge for aspen.Edge,
// 12 for aspen.WeightedEdge's float32 weight. The WAL and the submit wire
// both use it, so a payload's width is the one fact both derive from V.
//
// It is kept out of line: Go compiles a closure of an inlined function
// without inlining the closure's own calls, which would leave a call per
// edge to PutUint32 on the submit-encode, WAL-append and replay paths.
//
//go:noinline
func EdgeCodecOf[V ctree.Value]() Codec[aspen.EdgeOf[V]] {
	return Codec[aspen.EdgeOf[V]]{
		Width: 8 + aspen.PayloadWidth[V](),
		Encode: func(dst []byte, e aspen.EdgeOf[V]) {
			binary.LittleEndian.PutUint32(dst, e.Src)
			binary.LittleEndian.PutUint32(dst[4:], e.Dst)
			aspen.PutPayload(dst[8:], e.Val)
		},
		Decode: func(src []byte) aspen.EdgeOf[V] {
			return aspen.EdgeOf[V]{
				Src: binary.LittleEndian.Uint32(src),
				Dst: binary.LittleEndian.Uint32(src[4:]),
				Val: aspen.GetPayload[V](src[8:]),
			}
		},
	}
}

// EdgeCodec is the id-only EdgeCodecOf: src u32, dst u32.
var EdgeCodec = EdgeCodecOf[struct{}]()

// A commit frame is the payload of the one wal.Commit record each commit
// writes, little-endian:
//
//	[runs u16][notes u16]
//	runs  × [kind u8 (0 insert, 1 delete)][count u32]  in application order
//	notes × [client u64][seq u64]                      in submit order
//	edges × width bytes                                the runs' edges
//
// The tables are the record's head (commitHead bytes) and its Count is the
// total edge count. maxCoalesce keeps the tables within wal.MaxHead.

// commitHead is the byte length of a commit frame's tables.
func commitHead(runs, notes int) int { return 4 + 5*runs + 16*notes }

// encodeCommit writes the commit frame of runs and notes into p, which is
// exactly commitHead(len(runs), len(notes)) plus the edges' bytes long.
func encodeCommit[E any](p []byte, codec Codec[E], runs []CommitRun[E], notes []Note) {
	binary.LittleEndian.PutUint16(p, uint16(len(runs)))
	binary.LittleEndian.PutUint16(p[2:], uint16(len(notes)))
	p = p[4:]
	for _, r := range runs {
		p[0] = 0
		if r.Del {
			p[0] = 1
		}
		binary.LittleEndian.PutUint32(p[1:], uint32(len(r.Edges)))
		p = p[5:]
	}
	for _, n := range notes {
		binary.LittleEndian.PutUint64(p, n.Client)
		binary.LittleEndian.PutUint64(p[8:], n.Seq)
		p = p[16:]
	}
	for _, r := range runs {
		for _, e := range r.Edges {
			codec.Encode(p, e)
			p = p[codec.Width:]
		}
	}
}

// DecodeCommit decodes the commit frame rec carries into the commit's runs,
// ready for the engine's update, and the notes of its noted batches: the
// one decoder that recovery and the read replicas share. A record that is
// not exactly a commit frame of codec's width — another kind, tables that
// disagree with the payload's length or the record's Count — is
// wal.ErrCorrupt.
func DecodeCommit[E any](codec Codec[E], rec wal.Record) ([]CommitRun[E], []Note, error) {
	if rec.Kind != wal.Commit {
		return nil, nil, fmt.Errorf("%w: record %d is a %v record, not a commit frame", wal.ErrCorrupt, rec.Seq, rec.Kind)
	}
	p, w := rec.Data, codec.Width
	if int(rec.Width) != w || len(p) < 4 {
		return nil, nil, fmt.Errorf("%w: commit frame %d: width %d (engine expects %d), %d bytes", wal.ErrCorrupt, rec.Seq, rec.Width, w, len(p))
	}
	nr, nn := int(binary.LittleEndian.Uint16(p)), int(binary.LittleEndian.Uint16(p[2:]))
	head := commitHead(nr, nn)
	if uint64(len(p)) != uint64(head)+uint64(rec.Count)*uint64(w) {
		return nil, nil, fmt.Errorf("%w: commit frame %d: %d runs, %d notes and %d edges do not fill %d bytes", wal.ErrCorrupt, rec.Seq, nr, nn, rec.Count, len(p))
	}
	edges := make([]E, rec.Count)
	for i := range edges {
		edges[i] = codec.Decode(p[head+i*w:])
	}
	runs := make([]CommitRun[E], nr)
	off := 0
	for i := range runs {
		t := p[4+5*i:]
		n := int(binary.LittleEndian.Uint32(t[1:]))
		if t[0] > 1 || n > len(edges)-off {
			return nil, nil, fmt.Errorf("%w: commit frame %d: bad run %d", wal.ErrCorrupt, rec.Seq, i)
		}
		runs[i] = CommitRun[E]{Del: t[0] == 1, Edges: edges[off : off+n : off+n]}
		off += n
	}
	if off != len(edges) {
		return nil, nil, fmt.Errorf("%w: commit frame %d: runs hold %d of %d edges", wal.ErrCorrupt, rec.Seq, off, len(edges))
	}
	notes := make([]Note, nn)
	for i := range notes {
		t := p[4+5*nr+16*i:]
		notes[i] = Note{Client: binary.LittleEndian.Uint64(t), Seq: binary.LittleEndian.Uint64(t[8:])}
	}
	return runs, notes, nil
}

// SnapshotCodec fixes the checkpoint file format of a snapshot type.
type SnapshotCodec[G any] struct {
	Write func(w io.Writer, g G) error
	Read  func(r io.Reader) (G, error)
}

// GraphSnapshotCodec checkpoints an aspen graph of any payload V through
// graphio.Snapshot; p supplies the C-tree parameters for the rebuild.
func GraphSnapshotCodec[V ctree.Value](p ctree.Params) SnapshotCodec[aspen.GraphOf[V]] {
	return SnapshotCodec[aspen.GraphOf[V]]{
		Write: func(w io.Writer, g aspen.GraphOf[V]) error {
			return graphio.WriteSnapshot(w, g.Snapshot())
		},
		Read: func(r io.Reader) (aspen.GraphOf[V], error) {
			s, err := graphio.ReadSnapshot(r)
			if err != nil {
				return aspen.GraphOf[V]{}, err
			}
			return aspen.FromSnapshot[V](p, s)
		},
	}
}

// ckptReq hands one pinned snapshot to the checkpointer goroutine. seq is
// the last WAL sequence number the snapshot includes.
type ckptReq[G any] struct {
	g     G
	stamp uint64
	seq   uint64
}

// durable is the engine's durability state. The sinceCkpt and seq fields
// are owned by the ingest goroutine; everything else is safe for the
// checkpointer and the sync goroutine.
type durable[G ligra.Graph, E any] struct {
	opts  Durability
	log   *wal.Log
	codec Codec[E]
	snap  SnapshotCodec[G]

	sinceCkpt int
	seq       uint64 // of the last commit frame appended
	onAppend  func(seq uint64, kind wal.Kind, width uint8, count uint32, data []byte)

	// syncReq hands one commit's fsync to the sync goroutine under
	// SyncEveryCommit; syncDone carries its result back. At most one is
	// in flight: the ingest goroutine awaits each before the next append.
	syncReq   chan struct{}
	syncDone  chan error
	ckptCh    chan ckptReq[G]
	closeOnce sync.Once

	failed      atomic.Bool
	errv        atomic.Value
	checkpoints atomic.Uint64
	ckptSeq     atomic.Uint64
}

// fail records the first durability error and abandons the log the way a
// crash would (buffered bytes lost, written bytes kept). The engine goes
// fail-stop: every subsequent batch is nacked, nothing further is applied.
func (d *durable[G, E]) fail(err error) {
	if d.failed.CompareAndSwap(false, true) {
		d.errv.Store(err)
		d.log.Abort()
	}
}

// logCommit journals one commit before it is applied: one commit frame,
// encoded straight into the log's frame, whose seq becomes the commit's.
// Under SyncEveryCommit it then hands the frame's fsync to the sync
// goroutine without waiting for it; the engine applies the commit
// meanwhile and calls awaitSync before it publishes or acks anything.
// appendDur is frame encoding + buffered write, for the stage tracer.
func (d *durable[G, E]) logCommit(runs []CommitRun[E], notes []Note) (appendDur time.Duration, err error) {
	start := time.Now()
	w, count := d.codec.Width, 0
	for _, r := range runs {
		count += len(r.Edges)
	}
	seq, data, err := d.log.AppendFill(wal.Commit, uint8(w), uint32(count), commitHead(len(runs), len(notes))+count*w, func(p []byte) {
		encodeCommit(p, d.codec, runs, notes)
	})
	if err != nil {
		return time.Since(start), err
	}
	d.seq = seq
	if d.onAppend != nil {
		d.onAppend(seq, wal.Commit, uint8(w), uint32(count), data)
	}
	appendDur = time.Since(start)
	if d.opts.Policy == SyncEveryCommit {
		d.syncReq <- struct{}{}
	}
	return appendDur, nil
}

// awaitSync returns the result of the fsync logCommit handed off (nil at
// once unless Policy is SyncEveryCommit) and how long the caller still
// waited for it after its apply ended at applied: zero when the fsync had
// finished first. That wait is the commit's fsync stage, so the stages
// still tile enqueue to ack.
func (d *durable[G, E]) awaitSync(applied time.Time) (time.Duration, error) {
	if d.opts.Policy != SyncEveryCommit {
		return 0, nil
	}
	select {
	case err := <-d.syncDone:
		return 0, err
	default:
	}
	err := <-d.syncDone
	return time.Since(applied), err
}

// maybeCheckpoint counts commits and, at the configured cadence, hands the
// freshly committed snapshot to the checkpointer — non-blocking: if a
// checkpoint is already in flight the request is retried next commit.
func (e *Engine[G, E]) maybeCheckpoint(g G, stamp uint64) {
	d := e.dur
	d.sinceCkpt++
	if d.sinceCkpt < d.opts.CheckpointEvery {
		return
	}
	select {
	case d.ckptCh <- ckptReq[G]{g: g, stamp: stamp, seq: d.log.NextSeq() - 1}:
		d.sinceCkpt = 0
	default:
	}
}

// checkpointer is the background goroutine draining checkpoint requests.
func (e *Engine[G, E]) checkpointer() {
	defer e.durWG.Done()
	d := e.dur
	for req := range d.ckptCh {
		if d.failed.Load() {
			continue
		}
		if err := d.writeCheckpoint(req); err != nil {
			d.fail(err)
		}
	}
}

// syncLoop is the engine's one fsync goroutine under SyncEveryCommit: it
// runs each commit's fsync on request, beside that commit's apply on the
// ingest goroutine, until closeDurable closes the request channel.
func (e *Engine[G, E]) syncLoop() {
	defer e.durWG.Done()
	d := e.dur
	for range d.syncReq {
		d.syncDone <- d.log.Sync()
	}
}

// writeCheckpoint persists one snapshot atomically (temp + fsync + rename +
// dirsync via graphio.WriteFile), prunes old checkpoints, then truncates
// WAL segments the new checkpoint covers.
func (d *durable[G, E]) writeCheckpoint(req ckptReq[G]) error {
	if d.opts.Fail != nil {
		if err := d.opts.Fail("checkpoint"); err != nil {
			return err
		}
	}
	path := filepath.Join(d.opts.Dir, ckptName(req.seq, req.stamp))
	if err := graphio.WriteFile(path, func(w io.Writer) error {
		return d.snap.Write(w, req.g)
	}); err != nil {
		return err
	}
	d.ckptSeq.Store(req.seq)
	d.checkpoints.Add(1)
	if err := d.pruneCheckpoints(); err != nil {
		return err
	}
	// Truncate only behind the OLDEST retained checkpoint: recovery must be
	// able to fall back to it (a corrupt newest checkpoint) and still reach
	// the present by replay, so every record above its seq stays on disk.
	cks, err := listCheckpoints(d.opts.Dir)
	if err != nil {
		return err
	}
	if len(cks) == 0 {
		return nil
	}
	return d.log.TruncateBefore(cks[0].seq)
}

// pruneCheckpoints removes all but the newest keepCheckpoints files.
func (d *durable[G, E]) pruneCheckpoints() error {
	cks, err := listCheckpoints(d.opts.Dir)
	if err != nil {
		return err
	}
	for i := 0; i+keepCheckpoints < len(cks); i++ {
		if err := os.Remove(cks[i].path); err != nil {
			return err
		}
	}
	return nil
}

// closeDurable finishes the durable path on engine Close: stop the
// background goroutines, write a final checkpoint of the current version,
// and close the log cleanly. After an injected crash the log was already
// abandoned, so teardown only reaps the goroutines.
func (e *Engine[G, E]) closeDurable() {
	d := e.dur
	d.closeOnce.Do(func() {
		close(d.syncReq)
		close(d.ckptCh)
		e.durWG.Wait()
		if d.failed.Load() {
			return
		}
		if err := d.log.Sync(); err != nil {
			d.fail(err)
			return
		}
		v := e.reg.Acquire()
		req := ckptReq[G]{g: v.Graph.g, stamp: v.Stamp, seq: v.Graph.seq}
		err := d.writeCheckpoint(req)
		e.reg.Release(v)
		if err != nil {
			d.fail(err)
			return
		}
		if err := d.log.Close(); err != nil {
			d.fail(err)
		}
	})
}

// Err returns the durability error that moved the engine to fail-stop, or
// nil. Once non-nil, every subsequent batch is nacked (Pending.Wait
// returns stamp 0) and no further version is published.
func (e *Engine[G, E]) Err() error {
	if e.dur == nil {
		return nil
	}
	if v := e.dur.errv.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// SyncWAL forces an fsync of the WAL, making every acknowledged batch
// durable against power loss regardless of policy (a replication tail
// syncs so the WAL files hold every record it will read back). No-op
// without durability.
func (e *Engine[G, E]) SyncWAL() error {
	if e.dur == nil {
		return nil
	}
	if e.dur.failed.Load() {
		return e.Err()
	}
	if err := e.dur.log.Sync(); err != nil {
		e.dur.fail(err)
		return err
	}
	return nil
}

// OnWALAppend registers fn to observe every commit frame as it is
// appended on the commit path, before the commit is acknowledged —
// the feed a replication tail ships to read replicas, which read it back
// with DecodeCommit. fn runs on the ingest goroutine and data aliases the
// WAL's frame buffer, valid only until the next append: observers must
// copy what they keep and return quickly. Like OnCommit, it must be
// registered before the engine serves traffic. No-op without durability.
func (e *Engine[G, E]) OnWALAppend(fn func(seq uint64, kind wal.Kind, width uint8, count uint32, data []byte)) {
	if e.dur != nil {
		e.dur.onAppend = fn
	}
}

// WALSeq returns the sequence number of the last commit frame appended
// (0 with an empty log or without durability). It does not wait on the
// log's lock, and while a commit is being logged it runs ahead of every
// published version: a replica already holds those records, so a read
// watermark must be the pinned version's own seq (Tx.Seq), never this.
func (e *Engine[G, E]) WALSeq() uint64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.log.NextSeq() - 1
}

// checkpoint file naming: ckpt-<seq hex16>-<stamp hex16>.aspc

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".aspc"
)

func ckptName(seq, stamp uint64) string {
	return fmt.Sprintf("%s%016x-%016x%s", ckptPrefix, seq, stamp, ckptSuffix)
}

type ckptFile struct {
	path       string
	seq, stamp uint64
}

func parseCkptName(name string) (seq, stamp uint64, ok bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	parts := strings.Split(body, "-")
	if len(parts) != 2 || len(parts[0]) != 16 || len(parts[1]) != 16 {
		return 0, 0, false
	}
	seq, err1 := strconv.ParseUint(parts[0], 16, 64)
	stamp, err2 := strconv.ParseUint(parts[1], 16, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return seq, stamp, true
}

// listCheckpoints returns dir's checkpoint files sorted oldest-first.
func listCheckpoints(dir string) ([]ckptFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var cks []ckptFile
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, stamp, ok := parseCkptName(e.Name()); ok {
			cks = append(cks, ckptFile{path: filepath.Join(dir, e.Name()), seq: seq, stamp: stamp})
		}
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].seq < cks[j].seq })
	return cks, nil
}

// Load rebuilds the newest recoverable state from dir without opening the
// log for appending: the newest readable checkpoint (a corrupt one falls
// back to the next older; none falls back to g0) plus a replay of the
// surviving WAL tail. Returns the recovered snapshot and the last WAL
// sequence number it includes. Tolerates the torn final record a crash
// leaves; reports mid-log damage as wal.ErrCorrupt.
func Load[G ligra.Graph, E any](dir string, g0 G, apply func(G, []CommitRun[E]) G, codec Codec[E], sc SnapshotCodec[G]) (G, uint64, error) {
	return loadWithNotes(dir, g0, apply, codec, sc, nil)
}

// loadWithNotes is Load plus an observer for the notes of every replayed
// commit frame (Durability.OnReplayNote).
func loadWithNotes[G ligra.Graph, E any](dir string, g0 G, apply func(G, []CommitRun[E]) G, codec Codec[E], sc SnapshotCodec[G], onNote func(client, seq uint64)) (G, uint64, error) {
	g, after, ok, err := LoadCheckpoint(dir, sc)
	if err != nil {
		return g0, 0, err
	}
	if !ok {
		g = g0
	}
	last, err := wal.Replay(dir, after, func(rec wal.Record) error {
		runs, notes, err := DecodeCommit(codec, rec)
		if err != nil {
			return err
		}
		if onNote != nil {
			for _, n := range notes {
				onNote(n.Client, n.Seq)
			}
		}
		g = apply(g, runs)
		return nil
	})
	if err != nil {
		return g0, 0, err
	}
	return g, last, nil
}

// LoadCheckpoint reads the newest valid checkpoint in dir without
// touching the WAL; a damaged one falls back to the next older, whose gap
// the WAL still covers. It returns the snapshot and the exact WAL sequence
// number it covers — where Load's replay starts, and the pair a tail
// subscriber needs to bootstrap when its resume point predates the oldest
// retained WAL record. ok is false when the directory holds no readable
// checkpoint (resume from seq 0 instead).
func LoadCheckpoint[G any](dir string, sc SnapshotCodec[G]) (g G, seq uint64, ok bool, err error) {
	cks, err := listCheckpoints(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return g, 0, false, nil
		}
		return g, 0, false, err
	}
	for i := len(cks) - 1; i >= 0; i-- {
		f, oerr := os.Open(cks[i].path)
		if oerr != nil {
			return g, 0, false, oerr
		}
		loaded, rerr := sc.Read(f)
		f.Close()
		if rerr == nil {
			return loaded, cks[i].seq, true, nil
		}
		if !errors.Is(rerr, graphio.ErrCorrupt) {
			return g, 0, false, rerr
		}
	}
	return g, 0, false, nil
}

// Recover opens (or creates) a durable engine on d.Dir: load the newest
// valid checkpoint, replay the WAL tail over it, open the log for
// appending at the next sequence number, and start serving. A fresh
// directory comes up as g0 with an empty log, so Recover is also the
// constructor for new durable engines.
func Recover[G ligra.Graph, E any](g0 G, apply func(G, []CommitRun[E]) G, opts Options, d Durability, codec Codec[E], sc SnapshotCodec[G]) (*Engine[G, E], error) {
	if d.Dir == "" {
		return nil, errors.New("stream: Durability.Dir is required")
	}
	d = d.withDefaults()
	g, last, err := loadWithNotes(d.Dir, g0, apply, codec, sc, d.OnReplayNote)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(d.Dir, last+1, wal.Options{SegmentBytes: d.SegmentBytes, Fail: d.Fail})
	if err != nil {
		return nil, err
	}
	e := newEngine(g, last, apply, opts)
	e.dur = &durable[G, E]{
		opts:     d,
		log:      log,
		seq:      last,
		codec:    codec,
		snap:     sc,
		syncReq:  make(chan struct{}, 1),
		syncDone: make(chan error, 1),
		ckptCh:   make(chan ckptReq[G], 1),
	}
	e.start()
	return e, nil
}

// RecoverGraphEngineOf recovers (or creates) a durable aspen engine of
// payload V: Recover with the WAL codec, checkpoint codec and update all
// derived from V, and the flat-view cache wired as NewGraphEngine wires it.
func RecoverGraphEngineOf[V ctree.Value](p ctree.Params, opts Options, d Durability) (*Engine[aspen.GraphOf[V], aspen.EdgeOf[V]], error) {
	e, err := Recover(aspen.NewGraphOf[V](p), ApplyRuns[V], opts, d, EdgeCodecOf[V](), GraphSnapshotCodec[V](p))
	if err != nil {
		return nil, err
	}
	return wireFlat(e, opts), nil
}

// RecoverGraphEngine is RecoverGraphEngineOf for the id-only aspen.Graph.
func RecoverGraphEngine(p ctree.Params, opts Options, d Durability) (*Engine[aspen.Graph, aspen.Edge], error) {
	return RecoverGraphEngineOf[struct{}](p, opts, d)
}

// LoadGraph recovers just the snapshot of an aspen graph of payload V from
// dir (read-only; the -recover-only verification path).
func LoadGraph[V ctree.Value](p ctree.Params, dir string) (aspen.GraphOf[V], uint64, error) {
	return Load(dir, aspen.NewGraphOf[V](p), ApplyRuns[V], EdgeCodecOf[V](), GraphSnapshotCodec[V](p))
}
