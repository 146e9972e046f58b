// Package stream is the live-serving layer over Aspen's purely-functional
// snapshots: a single-writer ingest loop drains a bounded queue of edge
// batches — coalescing queued batches into one functional commit — while
// any number of concurrent read transactions pin immutable versions and
// run analytics against them (the paper's §7.8 "simultaneous updates and
// queries" scenario, served rather than benchmarked). Version lifetime is
// managed by the epoch-refcounted aspen.Versioned store: a retired
// snapshot is released — its C-tree root dropped for the runtime GC —
// exactly when its last reader finishes.
//
// The engine is generic over the snapshot type G (aspen.Graph,
// aspen.WeightedGraph, or anything else satisfying ligra.Graph) and the
// update type E (aspen.Edge, aspen.WeightedEdge), so one serving path
// covers every graph flavor in the repository. A commit, inserts and deletes
// alike, is one call of the engine's update (for aspen graphs, one tree pass).
package stream

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/wal"
)

// ErrClosed is returned by Insert/Delete/Flush after Close.
var ErrClosed = errors.New("stream: engine closed")

// Options tunes the ingest queue. The zero value selects defaults.
type Options struct {
	// QueueCap bounds the number of submitted-but-uncommitted batches;
	// submits block (backpressure) when the queue is full. Default 256.
	QueueCap int
	// MaxCoalesce bounds how many queued batches one commit may fold
	// together. Default 32, at most 2048 (maxCoalesce).
	MaxCoalesce int
	// MaxCoalesceEdges bounds the total edges one commit may fold
	// together (a single larger batch still commits, alone). Default
	// 1 << 20.
	MaxCoalesceEdges int
	// PrebuildFlat builds each committed version's flat view on the ingest
	// goroutine immediately after publish, so the first reader of every
	// version finds it cached instead of paying the O(n) build inside its
	// query. Off by default: views build lazily on the first Tx.Flat.
	PrebuildFlat bool
	// PatchFlat derives each version's flat view from its predecessor's by
	// patching only what the commit changed — O(batch) copy-on-write work
	// instead of the O(n) rebuild — so PrebuildFlat commits amortize to the
	// batch size. Honored by the graph-flavored constructors (which register
	// the aspen patcher); custom snapshot types opt in via SetFlatPatcher.
	// The cache then holds its newest view one version past retirement to
	// anchor the patch chain (see flatCache).
	PatchFlat bool
	// TraceSlow arms the stage tracer's slow-commit ring: commits whose
	// total staged time (enqueue through ack) reaches this threshold are
	// captured with their per-stage breakdown, readable via
	// Tracer().Slow and cmd/stream -trace-slow. 0 keeps the ring off;
	// the per-stage histograms record regardless.
	TraceSlow time.Duration
}

// maxCoalesce caps MaxCoalesce so that a commit frame's run and note
// tables, 21 bytes a batch at most, always fit the WAL record's head.
const maxCoalesce = 2048

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.MaxCoalesce <= 0 {
		o.MaxCoalesce = 32
	}
	o.MaxCoalesce = min(o.MaxCoalesce, maxCoalesce)
	if o.MaxCoalesceEdges <= 0 {
		o.MaxCoalesceEdges = 1 << 20
	}
	return o
}

// Note is an idempotency tag carried by SubmitNoted batches: the note
// table of the commit frame holding a noted batch lists (Client, Seq), so
// recovery and WAL tail shipping rebuild the server's per-client dedup
// window in the same atomic unit as the data. The zero Note means
// "untagged".
type Note struct {
	Client uint64
	Seq    uint64
}

// pending is one submitted batch waiting in the ingest queue.
type pending[E any] struct {
	del   bool
	edges []E
	note  Note
	enq   time.Time
	done  chan uint64 // nil unless a waiter wants the commit stamp
}

// Engine is the live-stream engine: one ingest goroutine owns the write
// path; readers run concurrently via Begin/Close transactions. Create with
// New (or NewGraphEngine, for any aspen payload); the ingest loop starts
// immediately.
type Engine[G ligra.Graph, E any] struct {
	reg   *aspen.Versioned[seqGraph[G]]
	apply func(G, []CommitRun[E]) G
	opts  Options

	// flat caches one §5.1 flat view per live version (see flatcache.go);
	// userRetire is the client hook chained after the cache drop.
	flat       flatCache[G]
	userRetire func(stamp uint64)

	// gate is held across each apply, and only there: not across the WAL
	// append, the fsync, the flat prebuild or the OnCommit hook. The aspen
	// flat views wireFlat builds wait on it in Warm, so a kernel scanning
	// one pauses at its next block while the engine applies a commit
	// (DESIGN.md, "Writer priority").
	gate parallel.Gate

	// onCommit, when set, observes every published version on the ingest
	// goroutine — the hook behind incremental kernel maintenance.
	onCommit func(prev, cur G, stamp uint64, runs []CommitRun[E])

	// dur, when non-nil, is the durable commit path (durable.go): WAL
	// append before apply, the policy fsync beside the apply and before
	// publish/ack, background checkpointing. Attached by Recover between
	// newEngine and start.
	dur   *durable[G, E]
	durWG sync.WaitGroup // checkpointer + sync goroutine

	mu     sync.RWMutex // guards closed and the queue close
	closed bool
	queue  chan pending[E]
	wg     sync.WaitGroup

	// now is the ingest loop's clock: a group's pickup time and its 1 ms
	// refill window are read from it (nil: time.Now; tests stop it).
	now func() time.Time

	commitHist obs.Hist
	edges      atomic.Uint64 // directed edge updates applied
	batches    atomic.Uint64 // batches committed
	commits    atomic.Uint64 // versions published

	// tracer aggregates per-stage commit latency (obs.StageTracer);
	// trace is the ingest goroutine's reusable scratch record, a
	// persistent field so recording a commit never allocates. runs and
	// notes are the same kind of scratch for the commit's folded runs and
	// its noted batches' notes.
	tracer obs.StageTracer
	trace  obs.StageTrace
	runs   []CommitRun[E]
	notes  []Note
}

// New builds an engine over an initial snapshot g and the functional
// update of the snapshot type: apply returns the snapshot with a commit's
// runs applied in order, as one version. The ingest loop starts running;
// call Close to stop it. Submitted edge slices must not be mutated by the
// caller afterwards (the engine never mutates them).
func New[G ligra.Graph, E any](g G, apply func(G, []CommitRun[E]) G, opts Options) *Engine[G, E] {
	e := newEngine(g, 0, apply, opts)
	e.start()
	return e
}

// seqGraph is what the version store holds: a snapshot and the last WAL
// seq it reflects (0 without durability), published together so a reader
// gets both from one pin.
type seqGraph[G any] struct {
	g   G
	seq uint64
}

// newEngine builds the engine over g, which reflects the WAL up to seq,
// without starting any goroutine, so durable state (Recover) can attach
// before the ingest loop first reads it.
func newEngine[G ligra.Graph, E any](g G, seq uint64, apply func(G, []CommitRun[E]) G, opts Options) *Engine[G, E] {
	e := &Engine[G, E]{
		reg:   aspen.NewVersioned(seqGraph[G]{g, seq}),
		apply: apply,
		opts:  opts.withDefaults(),
	}
	e.queue = make(chan pending[E], e.opts.QueueCap)
	if e.opts.TraceSlow > 0 {
		e.tracer.SetSlowThreshold(e.opts.TraceSlow)
	}
	// The engine owns the registry's retire hook: it drops the version's
	// cached flat view first, then forwards to the client hook.
	e.reg.SetRetireHook(func(stamp uint64) {
		e.flat.drop(stamp)
		if fn := e.userRetire; fn != nil {
			fn(stamp)
		}
	})
	return e
}

// start launches the ingest loop and, when durability is attached, the
// checkpointer and (under SyncEveryCommit) the fsync goroutine.
func (e *Engine[G, E]) start() {
	if e.dur != nil {
		e.durWG.Add(1)
		go e.checkpointer()
		if e.dur.opts.Policy == SyncEveryCommit {
			e.durWG.Add(1)
			go e.syncLoop()
		}
	}
	e.wg.Add(1)
	go e.loop()
}

// NewGraphEngine serves an aspen graph of any payload V with the §5.1
// flat-view cache wired to aspen.BuildFlatSnapshot. On aspen.WeightedGraph
// the views satisfy ligra.FlatWeightedGraph, so weighted kernels can
// type-assert for ForEachNeighborW.
func NewGraphEngine[V ctree.Value](g aspen.GraphOf[V], opts Options) *Engine[aspen.GraphOf[V], aspen.EdgeOf[V]] {
	return wireFlat(New(g, ApplyRuns[V], opts), opts)
}

// ApplyRuns is the update of every aspen engine, WAL replay and replica,
// whatever the payload V: a commit's runs in one aspen.GraphOf.ApplyRuns
// pass.
func ApplyRuns[V ctree.Value](g aspen.GraphOf[V], runs []CommitRun[aspen.EdgeOf[V]]) aspen.GraphOf[V] {
	rs := make([]aspen.Run[V], len(runs))
	for i, r := range runs {
		rs[i] = aspen.Run[V]{Del: r.Del, Edges: r.Edges}
	}
	return g.ApplyRuns(rs)
}

// wireFlat registers the aspen flat-view builder (and, under
// Options.PatchFlat, the incremental patcher) on an aspen engine — shared by
// the in-memory and durable constructors of every payload. Every view it
// builds waits on the engine's gate; a patched view inherits it.
func wireFlat[V ctree.Value](e *Engine[aspen.GraphOf[V], aspen.EdgeOf[V]], opts Options) *Engine[aspen.GraphOf[V], aspen.EdgeOf[V]] {
	build := func(g aspen.GraphOf[V]) ligra.Graph {
		fv := aspen.BuildFlatSnapshot(g)
		fv.SetGate(&e.gate)
		return fv
	}
	e.SetFlatten(build)
	if opts.PatchFlat {
		e.SetFlatPatcher(func(prev ligra.Graph, g aspen.GraphOf[V]) ligra.Graph {
			if fs, ok := prev.(*aspen.FlatView[V]); ok {
				return aspen.PatchFlatSnapshot(fs, g)
			}
			return build(g)
		})
	}
	return e
}

// SetFlatten registers the snapshot-to-flat-view builder behind Tx.Flat.
// Nil disables the cache (Flat then returns the tree view). Must be called
// before the first Submit or Begin; the graph-flavored constructors
// register the aspen builders automatically.
func (e *Engine[G, E]) SetFlatten(fn func(G) ligra.Graph) { e.flat.flatten = fn }

// SetFlatPatcher registers the incremental view derivation behind the flat
// cache: fn receives a previously materialized view (always of an older
// version of the same lineage) and the snapshot to view, and returns that
// snapshot's flat view — typically by copy-on-write patching in O(diff)
// (aspen.PatchFlatSnapshot). fn must fall back to a full build when prev is
// not a type it can patch. Must be called before the first Submit or Begin;
// the graph-flavored constructors register the aspen patchers when
// Options.PatchFlat is set.
func (e *Engine[G, E]) SetFlatPatcher(fn func(prev ligra.Graph, g G) ligra.Graph) {
	e.flat.patch = fn
}

// CommitRun is one same-kind run of a committed group, in application
// order: a maximal FIFO sequence of queued batches of one kind, concatenated.
// A kind change does not split the tree pass: the engine's update takes all
// of a commit's runs (aspen.GraphOf.ApplyRuns, one signed batch). The runs
// slice and the edge slices are the engine's (the former is reused by the
// next commit) — observers must not mutate or retain them past the hook call.
type CommitRun[E any] struct {
	Del   bool
	Edges []E
	owned bool // Edges is engine-allocated (safe to append to)
}

// OnCommit registers fn to observe every published version, called on the
// ingest goroutine after the version (and, under PrebuildFlat, its flat
// view) is published but before the commit is acknowledged — so a Flush
// returning guarantees the hook has run for everything submitted before it.
// prev and cur are the snapshots immediately before and after the commit
// (both immutable and safe to retain; holding them only delays GC, not
// correctness), runs the applied update sequence. The hook serializes with
// ingest: incremental maintenance (algos.IncrementalCC) belongs here, heavy
// recomputation does not. Call before the first Submit.
func (e *Engine[G, E]) OnCommit(fn func(prev, cur G, stamp uint64, runs []CommitRun[E])) {
	e.onCommit = fn
}

// OnRetire registers fn to run when a superseded version's last reader
// drops it (after the engine evicts the version's cached flat view; see
// aspen.Versioned.SetRetireHook). Call before the first Submit.
func (e *Engine[G, E]) OnRetire(fn func(stamp uint64)) { e.userRetire = fn }

// Pending is a handle to a submitted batch; Wait blocks until the batch is
// part of a published version and returns that version's stamp.
type Pending struct{ ch <-chan uint64 }

// Wait blocks until the batch commits and returns the commit stamp.
func (p Pending) Wait() uint64 { return <-p.ch }

// Done exposes the commit notification channel (closed after the stamp is
// sent).
func (p Pending) Done() <-chan uint64 { return p.ch }

// Insert enqueues a batch of edge insertions. Blocks while the queue is
// full. The returned Pending resolves when the batch is visible to new
// read transactions.
func (e *Engine[G, E]) Insert(edges []E) (Pending, error) { return e.SubmitNoted(false, edges, Note{}) }

// Delete enqueues a batch of edge deletions.
func (e *Engine[G, E]) Delete(edges []E) (Pending, error) { return e.SubmitNoted(true, edges, Note{}) }

// closedPending is returned on the ErrClosed path so a caller that drops
// the error and calls Wait fails fast (yields stamp 0) instead of
// blocking forever on a nil channel.
var closedPending = func() Pending {
	ch := make(chan uint64)
	close(ch)
	return Pending{ch: ch}
}()

// SubmitNoted enqueues a batch tagged with an idempotency note: the
// commit frame holding the batch lists (note.Client, note.Seq) so a dedup window
// rebuilt from the log knows the batch is part of the committed prefix.
// It is the engine's one enqueue: Insert, Delete and Flush call it with
// the zero Note, and it blocks while the queue is full. The caller owns
// deduplication — the engine only journals the tag.
func (e *Engine[G, E]) SubmitNoted(del bool, edges []E, note Note) (Pending, error) {
	done := make(chan uint64, 1)
	p := pending[E]{del: del, edges: edges, note: note, enq: time.Now(), done: done}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return closedPending, ErrClosed
	}
	e.queue <- p // may block (backpressure); the loop drains until close
	e.mu.RUnlock()
	return Pending{ch: done}, nil
}

// Flush blocks until every batch submitted before the call has committed,
// and returns the stamp current at that point: one empty marker rides the
// FIFO queue behind them.
func (e *Engine[G, E]) Flush() (uint64, error) {
	p, err := e.SubmitNoted(false, nil, Note{})
	if err != nil {
		return 0, err
	}
	return p.Wait(), nil
}

// Close stops the ingest loop after draining every queued batch, then
// waits for it to exit. Concurrent Submits either enqueue before the close
// (and are committed) or observe ErrClosed. Read transactions are
// unaffected and may outlive Close.
func (e *Engine[G, E]) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
	e.wg.Wait()
	if e.dur != nil {
		// Drain the background durability goroutines, write a final
		// checkpoint of the current version, close the log cleanly.
		e.closeDurable()
	}
}

// loop is the single-writer ingest loop: take one batch (blocking), drain
// whatever else is already queued up to the coalescing caps, commit once.
// When the queue runs dry the loop yields once, again while batches keep
// coming, and for up to a millisecond while the group is short of what the
// last commit left behind (DESIGN.md, "Ingest queue and coalescing").
// A batch received past the MaxCoalesceEdges budget is carried over to
// start the next commit group, so the edge cap is a hard bound per group
// (except for a single batch that alone exceeds it, which commits alone).
// There is one FIFO queue, so batches commit in submission order. The loop
// exits once the queue is closed and drained.
func (e *Engine[G, E]) loop() {
	defer e.wg.Done()
	var batch []pending[E]
	var carry pending[E]
	hasCarry, expect := false, 0 // expect: what the last commit acknowledged and found queued
	for {
		first := carry
		if !hasCarry {
			p, ok := <-e.queue
			if !ok {
				return
			}
			first = p
		}
		hasCarry = false
		pickup := e.clock() // StageEnqueue ends, StageCoalesce begins
		batch = append(batch[:0], first)
		edges, seen := len(first.edges), 0 // seen: the group size at the last yield
		for len(batch) < e.opts.MaxCoalesce && edges < e.opts.MaxCoalesceEdges {
			var next pending[E]
			got, open := false, true
			select {
			case next, open = <-e.queue:
				got = open
			default:
			}
			if !got {
				if len(batch) == seen && (!open || len(batch) >= expect || e.clock().Sub(pickup) >= time.Millisecond) {
					break // queue idle (or closed): commit what we have
				}
				seen = len(batch)
				runtime.Gosched() // let submitters that are running add theirs
				continue
			}
			if edges > 0 && edges+len(next.edges) > e.opts.MaxCoalesceEdges {
				carry, hasCarry = next, true
				break
			}
			batch = append(batch, next)
			edges += len(next.edges)
		}
		expect = e.commit(batch, edges, pickup)
	}
}

func (e *Engine[G, E]) clock() time.Time {
	if e.now != nil {
		return e.now()
	}
	return time.Now()
}

// commit folds the batch into same-kind runs and its notes, logs them as
// one WAL frame (when durability is attached), applies the runs to the
// latest snapshot in one call of the engine's update, publishes one new
// version, then acknowledges every batch with the commit stamp. Under
// SyncEveryCommit the frame's fsync runs on the sync goroutine while the
// apply runs here, and the version is published only once the fsync has
// returned: a commit waits for the longer of the two, not their sum. The
// ingest goroutine is the only writer, so the snapshot the apply reads is
// still the latest when it publishes. Durability failures are fail-stop:
// the applied snapshot is dropped unpublished, the batch (and every later
// one) is nacked — its done channel closes without a stamp — and nothing
// further is applied, so an acknowledged batch is always both applied and
// logged (and fsynced, under the per-commit policy).
//
// commit returns how many batches the next group should expect: this
// group's, whose closed-loop clients resubmit once acknowledged, plus those
// already queued. The queue is read before the acks, so a resubmission that
// an ack wakes is not counted twice. A nacked group expects none.
func (e *Engine[G, E]) commit(batch []pending[E], totalEdges int, pickup time.Time) (expect int) {
	if e.dur != nil && e.dur.failed.Load() {
		nack(batch)
		return 0
	}
	// Stage trace: e.trace is the ingest goroutine's persistent scratch
	// record (no per-commit allocation). Enqueue covers the oldest
	// batch's submit-to-pickup wait; coalesce the group folding; the
	// remaining stages are timed around the work below. Stages that do
	// not run stay zero and are excluded from their histograms.
	tr := &e.trace
	*tr = obs.StageTrace{Edges: totalEdges, Batches: len(batch)}
	tr.Durs[obs.StageEnqueue] = pickup.Sub(batch[0].enq)
	t := time.Now()
	tr.Durs[obs.StageCoalesce] = t.Sub(pickup)
	stamp := e.reg.Current()
	if totalEdges > 0 {
		runs, notes := e.runs[:0], e.notes[:0]
		for _, b := range batch {
			if len(b.edges) == 0 {
				continue
			}
			if b.note != (Note{}) {
				notes = append(notes, b.note)
			}
			if n := len(runs); n > 0 && runs[n-1].Del == b.del {
				last := &runs[n-1]
				if !last.owned {
					merged := make([]E, len(last.Edges), len(last.Edges)+len(b.edges))
					copy(merged, last.Edges)
					last.Edges = merged
					last.owned = true
				}
				last.Edges = append(last.Edges, b.edges...)
				continue
			}
			runs = append(runs, CommitRun[E]{Del: b.del, Edges: b.edges})
		}
		// Keep the scratch, but not the edge slices it points at.
		e.runs, e.notes = runs, notes
		defer clear(runs)
		if e.dur != nil {
			appendDur, err := e.dur.logCommit(runs, notes)
			tr.Durs[obs.StageWALAppend] = appendDur
			if err != nil {
				e.dur.fail(err)
				nack(batch)
				return 0
			}
		}
		t = time.Now()
		before := e.head()
		committed := e.applyFirst(before, runs)
		applied := time.Now()
		tr.Durs[obs.StageApply] = applied.Sub(t)
		if e.dur != nil {
			waited, err := e.dur.awaitSync(applied)
			tr.Durs[obs.StageFsync] = waited
			if err != nil {
				e.dur.fail(err)
				nack(batch)
				return 0
			}
		}
		stamp = e.reg.Update(func(cur seqGraph[G]) seqGraph[G] {
			if e.dur != nil {
				cur.seq = e.dur.seq
			}
			return seqGraph[G]{committed, cur.seq}
		})
		e.commits.Add(1)
		if e.dur != nil {
			e.maybeCheckpoint(committed, stamp)
		}
		if e.opts.PrebuildFlat {
			// Build-on-commit: the ingest goroutine still holds the freshly
			// published version current, so the stamp cannot retire under us.
			t = time.Now()
			e.flat.viewOf(stamp, committed)
			tr.Durs[obs.StageFlatPatch] = time.Since(t)
		}
		if e.onCommit != nil {
			e.onCommit(before, committed, stamp, runs)
		}
	}
	// Counters and latencies first, acks last: a waiter woken by its ack
	// must observe the commit already reflected in Stats. Zero-edge
	// batches (Flush markers) are acknowledged but never counted or
	// sampled — they are not committed work and would skew the tail.
	now := time.Now()
	for _, b := range batch {
		if len(b.edges) > 0 {
			e.batches.Add(1)
			e.commitHist.Observe(now.Sub(b.enq))
		}
	}
	e.edges.Add(uint64(totalEdges))
	expect = len(batch) + len(e.queue)
	for _, b := range batch {
		if b.done != nil {
			b.done <- stamp
			close(b.done)
		}
	}
	if totalEdges > 0 {
		tr.Durs[obs.StageAck] = time.Since(now)
		tr.Stamp = stamp
		e.tracer.Record(tr)
	}
	return expect
}

// head returns the latest published snapshot. Only the ingest goroutine
// publishes, so on it the result stays the latest until its next commit.
func (e *Engine[G, E]) head() G {
	v := e.reg.Acquire()
	defer e.reg.Release(v)
	return v.Graph.g
}

// applyFirst runs the engine's update with the gate held, when the
// alternation rule grants it, so readers of this engine's flat views yield
// to it; the deferred Release also runs if the update panics.
func (e *Engine[G, E]) applyFirst(g G, runs []CommitRun[E]) G {
	if e.gate.Hold() {
		defer e.gate.Release()
	}
	return e.apply(g, runs)
}

// nack closes every waiter's done channel without sending a stamp, so
// Pending.Wait returns 0 — unambiguous, since real commit stamps start
// at 1. The fail-stop path after a durability error.
func nack[E any](batch []pending[E]) {
	for _, b := range batch {
		if b.done != nil {
			close(b.done)
		}
	}
}

// Stats is a point-in-time view of the engine's counters.
type Stats struct {
	// Stamp is the latest published version.
	Stamp uint64 `json:"stamp"`
	// Commits is the number of versions published by the ingest loop.
	Commits uint64 `json:"commits"`
	// Batches is the number of submitted batches committed (≥ Commits;
	// the ratio is the coalescing factor).
	Batches uint64 `json:"batches"`
	// Edges is the number of directed edge updates applied.
	Edges uint64 `json:"edges"`
	// QueueDepth is the number of batches waiting in the ingest queue.
	QueueDepth int `json:"queue_depth"`
	// LiveVersions / RetiredVersions mirror the epoch registry: versions
	// still pinned (plus the current one) and versions fully released.
	LiveVersions    int64  `json:"live_versions"`
	RetiredVersions uint64 `json:"retired_versions"`
	// FlatBuilds / FlatPatches / FlatHits account the flat-view cache:
	// views built from scratch, views derived from a predecessor view in
	// O(batch) (Options.PatchFlat), and Tx.Flat calls served from cache.
	// Builds + patches is at most one per version. FlatCached is the number
	// of views currently held (≤ LiveVersions).
	FlatBuilds  uint64 `json:"flat_builds"`
	FlatPatches uint64 `json:"flat_patches,omitempty"`
	FlatHits    uint64 `json:"flat_hits"`
	FlatCached  int    `json:"flat_cached"`
	// PriorityHolds / PriorityDeclined count the applies that held the
	// engine's gate and those the alternation rule let run ungated;
	// ReaderWait is the total time flat-view readers spent parked on it.
	PriorityHolds    uint64        `json:"priority_holds"`
	PriorityDeclined uint64        `json:"priority_declined"`
	ReaderWait       time.Duration `json:"reader_wait_ns"`
	// Commit digests the enqueue-to-visible latency of committed batches.
	Commit obs.LatencySummary `json:"commit"`
	// Durable reports whether the engine has a durable commit path; the
	// remaining fields are zero without one. WAL mirrors the log's
	// counters; Checkpoints / CheckpointSeq account the background
	// checkpointer (CheckpointSeq is the last WAL sequence number covered
	// by a persisted checkpoint).
	Durable       bool      `json:"durable,omitempty"`
	WAL           wal.Stats `json:"wal,omitzero"`
	Checkpoints   uint64    `json:"checkpoints,omitempty"`
	CheckpointSeq uint64    `json:"checkpoint_seq,omitempty"`
}

// Stamp returns the latest published version stamp (same value Stats
// reports; a cheap accessor for callers that need only this).
func (e *Engine[G, E]) Stamp() uint64 { return e.reg.Current() }

// CoalesceFactor is committed batches per published version.
func (s Stats) CoalesceFactor() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Batches) / float64(s.Commits)
}

// Stats returns the engine's counters. Safe to call concurrently with
// everything else.
func (e *Engine[G, E]) Stats() Stats {
	s := Stats{
		Stamp:            e.reg.Current(),
		Commits:          e.commits.Load(),
		Batches:          e.batches.Load(),
		Edges:            e.edges.Load(),
		QueueDepth:       len(e.queue),
		LiveVersions:     e.reg.LiveVersions(),
		RetiredVersions:  e.reg.RetiredVersions(),
		FlatBuilds:       e.flat.builds.Load(),
		FlatPatches:      e.flat.patches.Load(),
		FlatHits:         e.flat.hits.Load(),
		FlatCached:       e.flat.size(),
		PriorityHolds:    e.gate.Holds(),
		PriorityDeclined: e.gate.Declined(),
		ReaderWait:       e.gate.Waited(),
		Commit:           e.commitHist.Summary(),
	}
	if e.dur != nil {
		s.Durable = true
		s.WAL = e.dur.log.Stats()
		s.Checkpoints = e.dur.checkpoints.Load()
		s.CheckpointSeq = e.dur.ckptSeq.Load()
	}
	return s
}
