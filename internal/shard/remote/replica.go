package remote

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rpc"
	"repro/internal/stream"
	"repro/internal/wal"
)

// defaultReplicaRing is how many consecutive (seq, graph) states a
// replica retains for exact-seq reads, one per commit; behind that,
// readers fall back to the primary.
const defaultReplicaRing = 512

// seqState is one retained replica state: the graph after applying commit
// frames 1..seq.
type seqState[G ligra.Graph] struct {
	seq uint64
	g   G
}

// Replica tails a primary's WAL commit frames and serves reads
// addressed by WAL sequence number. Each applied frame yields an
// immutable graph state; a bounded ring of recent states answers
// exact-seq reads, and anything outside the ring is refused with
// rpc.FlagLagging so the client falls back to the primary. The replica
// keeps nothing durable: on restart it re-tails from scratch
// (bootstrapping from the primary's checkpoint when the log was
// truncated).
//
// With Options.PromoteAfter set, a replica that loses its primary for
// that long promotes itself: it fences the dedup window it shadowed
// from the tail stream (outcomes in flight at the dead primary are
// unknowable, so their retries are refused rather than re-applied) and
// starts accepting submits, stamping each with its applied watermark.
// The connection layer is shared with Server (endpoint.go).
type Replica[G ligra.Graph, E any] struct {
	endpoint[G, E]
	primary string
	apply   func(g G, runs []stream.CommitRun[E]) G
	ringCap int
	opts    Options

	promoted atomic.Bool

	smu     sync.Mutex
	states  []seqState[G] // ascending seq; contiguous between snapshot jumps
	applied uint64
	cur     G

	tailOnce sync.Once

	records, snaps, resyncs atomic.Uint64
	reads, lagging, submits atomic.Uint64
}

// NewReplica builds a replica of the shard primary at addr. ringCap
// bounds retained states (<=0: default 512).
func NewReplica[G ligra.Graph, E any](addr string, empty G, apply func(g G, runs []stream.CommitRun[E]) G, codec stream.Codec[E], snap stream.SnapshotCodec[G], weighted bool, shardID, shards, ringCap int, o Options) *Replica[G, E] {
	if ringCap <= 0 {
		ringCap = defaultReplicaRing
	}
	o = o.withDefaults()
	r := &Replica[G, E]{primary: addr, apply: apply, ringCap: ringCap, opts: o, cur: empty}
	r.endpoint = endpoint[G, E]{
		role:     r,
		codec:    codec,
		snap:     snap,
		weighted: weighted,
		shardID:  shardID,
		shards:   shards,
		dedup:    NewDedup(o.DedupWindow),
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	return r
}

// NewGraphReplica builds an unweighted replica.
func NewGraphReplica(addr string, p ctree.Params, shardID, shards, ringCap int, o Options) *Replica[aspen.Graph, aspen.Edge] {
	return NewReplica(addr, aspen.NewGraph(p), stream.ApplyRuns[struct{}], stream.EdgeCodec, stream.GraphSnapshotCodec(p), false, shardID, shards, ringCap, o)
}

// NewWeightedReplica builds a weighted replica.
func NewWeightedReplica(addr string, p ctree.Params, shardID, shards, ringCap int, o Options) *Replica[aspen.WeightedGraph, aspen.WeightedEdge] {
	return NewReplica(addr, aspen.NewWeightedGraphWith(p), stream.ApplyRuns[float32], stream.WeightedEdgeCodec, stream.WeightedSnapshotCodec(p), true, shardID, shards, ringCap, o)
}

// Applied returns the highest WAL seq the replica has applied.
func (r *Replica[G, E]) Applied() uint64 {
	r.smu.Lock()
	defer r.smu.Unlock()
	return r.applied
}

// Promoted reports whether the replica has assumed primary duty.
func (r *Replica[G, E]) Promoted() bool { return r.promoted.Load() }

// Serve starts the tail loop (once) and accepts read connections on ln
// until Close. Blocks.
func (r *Replica[G, E]) Serve(ln net.Listener) error {
	r.tailOnce.Do(func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if !r.closed {
			r.wg.Add(1)
			go r.tailLoop()
		}
	})
	return r.endpoint.Serve(ln)
}

// tailLoop keeps one tail subscription alive against the primary,
// redialing with backoff whenever the connection drops. Sustained loss
// with no tail progress for Options.PromoteAfter promotes the replica
// (when enabled) and ends the loop — the primary is presumed dead.
func (r *Replica[G, E]) tailLoop() {
	defer r.wg.Done()
	attempt := 0
	var downSince time.Time
	for {
		if r.isClosed() {
			return
		}
		before := r.Applied()
		err := r.tailOnceConn()
		if err == nil || r.isClosed() {
			return
		}
		if r.Applied() > before || downSince.IsZero() {
			// Progress this round (or first failure): restart the loss
			// clock and the backoff ladder.
			if r.Applied() > before {
				attempt = 0
			}
			downSince = time.Now()
		}
		r.resyncs.Add(1)
		if pa := r.opts.PromoteAfter; pa > 0 && time.Since(downSince) >= pa {
			r.promote()
			return
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.opts.Backoff.delay(attempt)):
		}
		attempt++
	}
}

// promote fences the shadowed dedup window and switches the replica to
// an accepting primary.
func (r *Replica[G, E]) promote() {
	r.dedup.fenceAll()
	r.promoted.Store(true)
}

// tailOnceConn runs one tail subscription: dial, handshake, subscribe
// after the applied watermark, then apply the pushed record stream
// until the connection fails. Returns nil only on shutdown.
func (r *Replica[G, E]) tailOnceConn() error {
	nc, err := r.opts.Dialer("tcp", r.primary, r.opts.DialTimeout)
	if err != nil {
		return err
	}
	defer nc.Close()
	// Tear the connection down on Close so the blocking read exits.
	stopDone := make(chan struct{})
	defer close(stopDone)
	go func() {
		select {
		case <-r.stop:
			nc.Close()
		case <-stopDone:
		}
	}()
	bw := bufio.NewWriterSize(nc, 1<<16)
	hi := helloInfo{shard: r.shardID, shards: r.shards, weighted: r.weighted, width: r.codec.Width, role: rolePrimary}
	if err := handshake(nc, bw, hi); err != nil {
		return err
	}
	var enc rpc.Encoder
	enc.Begin(rpc.VerbTail, 0, 1)
	enc.U64(r.Applied())
	f, err := enc.Finish()
	if err != nil {
		return err
	}
	if _, err := bw.Write(f); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	rd := rpc.NewReader(bufio.NewReaderSize(nc, 1<<18))
	ack, err := rd.Next()
	if err != nil {
		return err
	}
	if ack.Verb != rpc.VerbTail || ack.Flags&rpc.FlagErr != 0 {
		return fmt.Errorf("remote: tail subscribe: %s", string(ack.Body))
	}
	for {
		m, err := rd.Next()
		if err != nil {
			if r.isClosed() {
				return nil
			}
			return err
		}
		switch m.Verb {
		case rpc.VerbTailRec:
			if m.Flags&rpc.FlagErr != 0 {
				return fmt.Errorf("remote: tail: %s", string(m.Body))
			}
			if err := r.applyRec(m.Body); err != nil {
				return err
			}
		case rpc.VerbTailSnap:
			if err := r.applySnap(m.Body); err != nil {
				return err
			}
		case rpc.VerbTail:
			if m.Flags&rpc.FlagErr != 0 {
				return fmt.Errorf("remote: tail: %s", string(m.Body))
			}
		default:
			return fmt.Errorf("remote: unexpected tail frame verb %d", m.Verb)
		}
	}
}

// applyRec applies one shipped commit frame as one update, retaining the
// new state. The frame's notes are shadowed into the replica's dedup
// window, so a promotion can answer retried submits the dead primary
// already committed.
func (r *Replica[G, E]) applyRec(body []byte) error {
	d := rpc.NewBody(body)
	rec := wal.Record{Seq: d.U64(), Kind: wal.Kind(d.U8()), Width: d.U8(), Count: d.U32()}
	rec.Data = d.Rest()
	if err := d.Err(); err != nil {
		return err
	}
	runs, notes, err := stream.DecodeCommit(r.codec, rec)
	if err != nil {
		return fmt.Errorf("remote: tail: %w", err)
	}
	r.smu.Lock()
	defer r.smu.Unlock()
	if rec.Seq <= r.applied {
		return nil // already covered (file/live overlap on the server)
	}
	if r.applied != 0 && rec.Seq != r.applied+1 {
		return fmt.Errorf("remote: tail gap: applied %d, got %d", r.applied, rec.Seq)
	}
	for _, n := range notes {
		r.dedup.Observe(n.Client, n.Seq)
	}
	r.cur = r.apply(r.cur, runs)
	r.applied = rec.Seq
	r.pushStateLocked(rec.Seq, r.cur)
	r.records.Add(1)
	return nil
}

// applySnap installs a checkpoint bootstrap, resetting the ring.
func (r *Replica[G, E]) applySnap(body []byte) error {
	d := rpc.NewBody(body)
	seq := d.U64()
	raw := d.Rest()
	if err := d.Err(); err != nil {
		return err
	}
	g, err := r.snap.Read(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("remote: tail snapshot: %w", err)
	}
	r.smu.Lock()
	defer r.smu.Unlock()
	if seq < r.applied {
		return nil // already past it
	}
	r.cur = g
	r.applied = seq
	r.states = r.states[:0]
	r.pushStateLocked(seq, g)
	r.snaps.Add(1)
	return nil
}

func (r *Replica[G, E]) pushStateLocked(seq uint64, g G) {
	r.states = append(r.states, seqState[G]{seq: seq, g: g})
	if len(r.states) > r.ringCap {
		// Drop the oldest half in one slide so eviction is amortized
		// O(1) without holding graphs live through a full reslice.
		keep := r.ringCap / 2
		n := copy(r.states, r.states[len(r.states)-keep:])
		for i := n; i < len(r.states); i++ {
			r.states[i] = seqState[G]{}
		}
		r.states = r.states[:n]
	}
}

// stateAt returns the graph exactly at WAL seq, or false when the
// replica has not reached (or no longer retains) it.
func (r *Replica[G, E]) stateAt(seq uint64) (G, bool) {
	r.smu.Lock()
	defer r.smu.Unlock()
	if seq == r.applied && r.applied != 0 {
		return r.cur, true
	}
	lo, hi := 0, len(r.states)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.states[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.states) && r.states[lo].seq == seq {
		return r.states[lo].g, true
	}
	var zero G
	return zero, false
}

// ReplicaStats are the replica's observability counters.
type ReplicaStats struct {
	Applied uint64 `json:"applied"`
	States  int    `json:"states"`
	// Records counts the commit frames applied from the tail stream.
	Records   uint64 `json:"records"`
	Snapshots uint64 `json:"snapshots,omitempty"`
	Resyncs   uint64 `json:"resyncs,omitempty"`
	Reads     uint64 `json:"reads"`
	Lagging   uint64 `json:"lagging,omitempty"`
	Promoted  bool   `json:"promoted,omitempty"`
	Submits   uint64 `json:"submits,omitempty"`
}

// Stats returns the replica's counters.
func (r *Replica[G, E]) Stats() ReplicaStats {
	r.smu.Lock()
	applied, states := r.applied, len(r.states)
	r.smu.Unlock()
	return ReplicaStats{
		Applied:   applied,
		States:    states,
		Records:   r.records.Load(),
		Snapshots: r.snaps.Load(),
		Resyncs:   r.resyncs.Load(),
		Reads:     r.reads.Load(),
		Lagging:   r.lagging.Load(),
		Promoted:  r.promoted.Load(),
		Submits:   r.submits.Load(),
	}
}

func (r *Replica[G, E]) id() uint8 {
	if r.promoted.Load() {
		return rolePromoted
	}
	return roleReplica
}

func (r *Replica[G, E]) writable() bool { return r.promoted.Load() }
func (r *Replica[G, E]) stats() any     { return r.Stats() }

func (r *Replica[G, E]) progress() (stamp, seq uint64) {
	applied := r.Applied()
	return applied, applied
}

// commit applies one submit on a promoted replica: synchronously under the
// state lock, stamped with the advanced watermark. Not durable — the
// promoted replica is an availability bridge, and DESIGN.md's failure
// model spells out that trade.
func (r *Replica[G, E]) commit(sc *serverConn[G, E], id uint64, del bool, edges []E, note stream.Note) error {
	r.smu.Lock()
	r.cur = r.apply(r.cur, []stream.CommitRun[E]{{Del: del, Edges: edges}})
	r.applied++
	stamp := r.applied
	r.pushStateLocked(stamp, r.cur)
	r.smu.Unlock()
	r.submits.Add(1)
	return sc.settle(id, note, stamp, "")
}

// resolve reads the ring's state at a WAL seq.
func (r *Replica[G, E]) resolve(_ *serverConn[G, E], bySeq bool, seq uint64) (g G, flags uint8, err error) {
	if !bySeq {
		return g, 0, errors.New("replica serves by-seq reads only")
	}
	r.reads.Add(1)
	g, ok := r.stateAt(seq)
	if !ok {
		r.lagging.Add(1)
		return g, rpc.FlagLagging, fmt.Errorf("seq %d not held (applied %d)", seq, r.Applied())
	}
	return g, 0, nil
}

// held is whatever the ring still retains at seq.
func (r *Replica[G, E]) held(_ *serverConn[G, E], seq uint64) (G, bool) { return r.stateAt(seq) }

func (r *Replica[G, E]) verb(sc *serverConn[G, E], m rpc.Msg) (bool, error) {
	switch m.Verb {
	case rpc.VerbPin:
		// The replica holds no refcounted pins: the pinned state is
		// whatever the ring retains at this seq. Stamp is zero while
		// unpromoted (the read is addressed purely by seq) and the
		// applied watermark once promoted (its stamp domain).
		applied := r.Applied()
		stamp := uint64(0)
		if r.promoted.Load() {
			stamp = applied
		}
		return true, sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
			e.U64(stamp)
			e.U64(applied)
		})
	case rpc.VerbRelease:
		// Pins are not refcounted here; release is a courtesy no-op.
		return true, sc.reply(m.Verb, 0, m.ReqID, nil)
	case rpc.VerbFlush:
		// Promoted submits apply synchronously on their reader
		// goroutine, so everything this connection submitted before
		// the flush is already applied.
		applied := r.Applied()
		return true, sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
			e.U64(applied)
			e.U64(applied)
		})
	}
	return false, nil
}
