package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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

// This file is the durable commit path: every coalesced commit appends its
// runs to a segmented WAL (internal/wal) before the snapshot is published
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
	// SyncEveryCommit fsyncs before each commit is acknowledged: an acked
	// batch survives power loss. Highest latency cost.
	SyncEveryCommit SyncPolicy = iota
	// SyncInterval fsyncs from a background ticker: an acked batch survives
	// process death immediately and power loss after at most Interval.
	SyncInterval
	// SyncOff never fsyncs outside rotation, checkpoint and Close: an acked
	// batch survives process death only once its buffered frame reaches the
	// file (rotation or interval-free flush on Close/checkpoint).
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryCommit:
		return "per-commit"
	case SyncInterval:
		return "interval"
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
	case "interval":
		return SyncInterval, nil
	case "off", "none":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("stream: unknown fsync policy %q", s)
}

// Durability configures the durable commit path. The zero Dir disables it.
type Durability struct {
	// Dir is the data directory holding WAL segments and checkpoints.
	Dir string
	// Policy selects the fsync policy. Default SyncEveryCommit.
	Policy SyncPolicy
	// Interval is the background fsync period under SyncInterval.
	// Default 20ms.
	Interval time.Duration
	// CheckpointEvery requests a checkpoint after this many commits
	// (skipped while one is already in flight). Default 256.
	CheckpointEvery int
	// KeepCheckpoints retains this many newest checkpoint files (older
	// ones are pruned after each new checkpoint lands). Default 2.
	KeepCheckpoints int
	// SegmentBytes is the WAL segment rotation size (wal.Options).
	SegmentBytes int64
	// Fail is the crash-injection hook, consulted at every WAL kill point
	// plus "checkpoint" (before a checkpoint file is written). Nil in
	// production.
	Fail wal.Failpoint
	// OnReplayNote, when set, observes the idempotency note of every
	// noted WAL record replayed during Recover, in log order — how the
	// distributed layer's per-client dedup window survives a restart.
	// Records covered by the checkpoint are not replayed; notes older
	// than the checkpoint horizon are gone, which is why the dedup
	// window must be sized under the checkpoint cadence (see DESIGN.md).
	OnReplayNote func(client, seq uint64)
}

func (d Durability) withDefaults() Durability {
	if d.Interval <= 0 {
		d.Interval = 20 * time.Millisecond
	}
	if d.CheckpointEvery <= 0 {
		d.CheckpointEvery = 256
	}
	if d.KeepCheckpoints <= 0 {
		d.KeepCheckpoints = 2
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

// EdgeCodec encodes aspen.Edge as src u32, dst u32.
var EdgeCodec = Codec[aspen.Edge]{
	Width: 8,
	Encode: func(dst []byte, e aspen.Edge) {
		binary.LittleEndian.PutUint32(dst, e.Src)
		binary.LittleEndian.PutUint32(dst[4:], e.Dst)
	},
	Decode: func(src []byte) aspen.Edge {
		return aspen.Edge{
			Src: binary.LittleEndian.Uint32(src),
			Dst: binary.LittleEndian.Uint32(src[4:]),
		}
	},
}

// WeightedEdgeCodec encodes aspen.WeightedEdge as src u32, dst u32,
// float32 weight.
var WeightedEdgeCodec = Codec[aspen.WeightedEdge]{
	Width: 12,
	Encode: func(dst []byte, e aspen.WeightedEdge) {
		binary.LittleEndian.PutUint32(dst, e.Src)
		binary.LittleEndian.PutUint32(dst[4:], e.Dst)
		binary.LittleEndian.PutUint32(dst[8:], math.Float32bits(e.Val))
	},
	Decode: func(src []byte) aspen.WeightedEdge {
		return aspen.WeightedEdge{
			Src: binary.LittleEndian.Uint32(src),
			Dst: binary.LittleEndian.Uint32(src[4:]),
			Val: math.Float32frombits(binary.LittleEndian.Uint32(src[8:])),
		}
	},
}

// SnapshotCodec fixes the checkpoint file format of a snapshot type.
type SnapshotCodec[G any] struct {
	Write func(w io.Writer, g G) error
	Read  func(r io.Reader) (G, error)
}

// GraphSnapshotCodec checkpoints aspen.Graph through graphio.Snapshot;
// p supplies the C-tree parameters for the rebuild.
func GraphSnapshotCodec(p ctree.Params) SnapshotCodec[aspen.Graph] { return snapshotCodec[struct{}](p) }

// WeightedSnapshotCodec checkpoints aspen.WeightedGraph.
func WeightedSnapshotCodec(p ctree.Params) SnapshotCodec[aspen.WeightedGraph] {
	return snapshotCodec[float32](p)
}

// snapshotCodec checkpoints an aspen graph of any payload V.
func snapshotCodec[V ctree.Value](p ctree.Params) SnapshotCodec[aspen.GraphOf[V]] {
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

// durable is the engine's durability state. The sinceCkpt counter is owned
// by the ingest goroutine; everything else is safe for the checkpointer and
// sync ticker.
type durable[G ligra.Graph, E any] struct {
	opts  Durability
	log   *wal.Log
	codec Codec[E]
	snap  SnapshotCodec[G]

	sinceCkpt int
	onAppend  func(seq uint64, kind wal.Kind, width uint8, count uint32, data []byte)

	ckptCh    chan ckptReq[G]
	stopSync  chan struct{}
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

// logCommit journals one coalesced commit group before it is applied
// or acked. With no idempotency notes in the group, same-kind runs
// collapse to one record each (the PR-6 format). Any noted batch
// switches the group to one record per batch so every note lands in
// its own atomic record; application still uses the merged runs — the
// concatenated edge stream on disk is identical either way. The
// returned durations split the work for the stage tracer: appendDur is
// record encoding + buffered writes, syncDur the per-commit fsync
// (zero unless Policy is SyncEveryCommit) — the split that makes the
// PR 6 fsync overhead attributable per commit.
func (d *durable[G, E]) logCommit(batch []pending[E], runs []CommitRun[E]) (appendDur, syncDur time.Duration, err error) {
	start := time.Now()
	noted := false
	for _, b := range batch {
		if b.note != (Note{}) {
			noted = true
			break
		}
	}
	if !noted {
		for _, r := range runs {
			if err := d.logOne(r.Del, r.Edges, Note{}); err != nil {
				return time.Since(start), 0, err
			}
		}
	} else {
		for _, b := range batch {
			if len(b.edges) == 0 {
				continue
			}
			if err := d.logOne(b.del, b.edges, b.note); err != nil {
				return time.Since(start), 0, err
			}
		}
	}
	appended := time.Now()
	appendDur = appended.Sub(start)
	if d.opts.Policy == SyncEveryCommit {
		err = d.log.Sync()
		syncDur = time.Since(appended)
	}
	return appendDur, syncDur, err
}

// logOne appends one WAL record for a merged run or a noted batch, encoding
// the edges straight into the log's frame.
func (d *durable[G, E]) logOne(del bool, edges []E, note Note) error {
	w := d.codec.Width
	hdr := 0
	kind := wal.Insert
	if del {
		kind = wal.Delete
	}
	if note != (Note{}) {
		hdr = wal.NoteLen
		kind = wal.NotedInsert
		if del {
			kind = wal.NotedDelete
		}
	}
	seq, data, err := d.log.AppendFill(kind, uint8(w), uint32(len(edges)), hdr+w*len(edges), func(buf []byte) {
		if hdr != 0 {
			binary.LittleEndian.PutUint64(buf, note.Client)
			binary.LittleEndian.PutUint64(buf[8:], note.Seq)
		}
		for i, ed := range edges {
			d.codec.Encode(buf[hdr+i*w:], ed)
		}
	})
	if err != nil {
		return err
	}
	if d.onAppend != nil {
		d.onAppend(seq, kind, uint8(w), uint32(len(edges)), data)
	}
	return nil
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

// syncLoop is the background fsync ticker of the SyncInterval policy.
func (e *Engine[G, E]) syncLoop() {
	defer e.durWG.Done()
	d := e.dur
	t := time.NewTicker(d.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-d.stopSync:
			return
		case <-t.C:
			if d.failed.Load() {
				continue
			}
			if err := d.log.Sync(); err != nil {
				d.fail(err)
			}
		}
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

// pruneCheckpoints removes all but the newest KeepCheckpoints files.
func (d *durable[G, E]) pruneCheckpoints() error {
	cks, err := listCheckpoints(d.opts.Dir)
	if err != nil {
		return err
	}
	for i := 0; i+d.opts.KeepCheckpoints < len(cks); i++ {
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
		close(d.stopSync)
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
		req := ckptReq[G]{g: v.Graph, stamp: v.Stamp, seq: d.log.NextSeq() - 1}
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
// durable against power loss regardless of policy (the shard layer's
// DurableBarrier). No-op without durability.
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

// OnWALAppend registers fn to observe every WAL record as it is
// appended on the commit path, before the commit is acknowledged —
// the feed a replication tail ships to read replicas. fn runs on the
// ingest goroutine and data aliases the WAL's frame buffer, valid only
// until the next append: observers must copy what they keep and return
// quickly. Like OnCommit, it must be registered before the engine serves
// traffic. No-op without durability.
func (e *Engine[G, E]) OnWALAppend(fn func(seq uint64, kind wal.Kind, width uint8, count uint32, data []byte)) {
	if e.dur != nil {
		e.dur.onAppend = fn
	}
}

// WALSeq returns the sequence number of the last WAL record appended
// (0 with an empty log or without durability). Because it is read
// outside the ingest goroutine it may overestimate the state any
// pinned version reflects — safe for replica read watermarks, where
// an overestimate only forces a primary fallback, never a stale read.
func (e *Engine[G, E]) WALSeq() uint64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.log.NextSeq() - 1
}

// WALStats returns the log's counters (zero without durability).
func (e *Engine[G, E]) WALStats() wal.Stats {
	if e.dur == nil {
		return wal.Stats{}
	}
	return e.dur.log.Stats()
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

// loadWithNotes is Load plus an observer for the idempotency notes of
// replayed Noted* records (Durability.OnReplayNote).
func loadWithNotes[G ligra.Graph, E any](dir string, g0 G, apply func(G, []CommitRun[E]) G, codec Codec[E], sc SnapshotCodec[G], onNote func(client, seq uint64)) (G, uint64, error) {
	g, after := g0, uint64(0)
	cks, err := listCheckpoints(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return g0, 0, err
	}
	for i := len(cks) - 1; i >= 0; i-- {
		f, err := os.Open(cks[i].path)
		if err != nil {
			return g0, 0, err
		}
		loaded, rerr := sc.Read(f)
		f.Close()
		if rerr == nil {
			g, after = loaded, cks[i].seq
			break
		}
		if !errors.Is(rerr, graphio.ErrCorrupt) {
			return g0, 0, rerr
		}
		// A checkpoint torn mid-write (crash before the atomic rename
		// completed would leave no file at all, but a damaged disk can):
		// fall back to the previous one; the WAL still covers the gap.
	}
	run := make([]CommitRun[E], 1) // one record is one run
	last, err := wal.Replay(dir, after, func(rec wal.Record) error {
		if int(rec.Width) != codec.Width {
			return fmt.Errorf("%w: record width %d, engine expects %d", wal.ErrCorrupt, rec.Width, codec.Width)
		}
		data := rec.Data
		if rec.Kind.HasNote() {
			if onNote != nil {
				onNote(binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint64(data[8:]))
			}
			data = data[wal.NoteLen:]
		}
		edges := make([]E, rec.Count)
		for i := range edges {
			edges[i] = codec.Decode(data[i*codec.Width:])
		}
		run[0] = CommitRun[E]{Del: rec.Kind.IsDelete(), Edges: edges}
		g = apply(g, run)
		return nil
	})
	if err != nil {
		return g0, 0, err
	}
	return g, last, nil
}

// LoadCheckpoint reads the newest valid checkpoint in dir (falling
// back past corrupt files like Load) without touching the WAL. It
// returns the snapshot and the exact WAL sequence number it covers —
// the pair a tail subscriber needs to bootstrap when its resume point
// predates the oldest retained WAL record. ok is false when the
// directory holds no readable checkpoint (resume from seq 0 instead).
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
	e := newEngine(g, apply, opts)
	e.dur = &durable[G, E]{
		opts:     d,
		log:      log,
		codec:    codec,
		snap:     sc,
		ckptCh:   make(chan ckptReq[G], 1),
		stopSync: make(chan struct{}),
	}
	e.start()
	return e, nil
}

// RecoverGraphEngine recovers (or creates) a durable unweighted engine.
func RecoverGraphEngine(p ctree.Params, opts Options, d Durability) (*Engine[aspen.Graph, aspen.Edge], error) {
	return recoverAspen(p, opts, d, EdgeCodec)
}

// RecoverWeightedEngine recovers (or creates) a durable weighted engine.
func RecoverWeightedEngine(p ctree.Params, opts Options, d Durability) (*Engine[aspen.WeightedGraph, aspen.WeightedEdge], error) {
	return recoverAspen(p, opts, d, WeightedEdgeCodec)
}

// recoverAspen is Recover for an aspen graph of any payload V, with the
// flat-view cache wired as the in-memory constructors wire it.
func recoverAspen[V ctree.Value](p ctree.Params, opts Options, d Durability, codec Codec[aspen.EdgeOf[V]]) (*Engine[aspen.GraphOf[V], aspen.EdgeOf[V]], error) {
	e, err := Recover(aspen.NewGraphOf[V](p), ApplyRuns[V], opts, d, codec, snapshotCodec[V](p))
	if err != nil {
		return nil, err
	}
	return wireFlat(e, opts), nil
}

// LoadGraph recovers just the unweighted snapshot from dir (read-only; the
// -recover-only verification path).
func LoadGraph(p ctree.Params, dir string) (aspen.Graph, uint64, error) {
	return Load(dir, aspen.NewGraph(p), ApplyRuns[struct{}], EdgeCodec, GraphSnapshotCodec(p))
}

// LoadWeightedGraph is LoadGraph for weighted directories.
func LoadWeightedGraph(p ctree.Params, dir string) (aspen.WeightedGraph, uint64, error) {
	return Load(dir, aspen.NewWeightedGraphWith(p), ApplyRuns[float32], WeightedEdgeCodec, WeightedSnapshotCodec(p))
}
