package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
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
// replica retains for exact-seq reads; behind that, readers fall back
// to the primary.
const defaultReplicaRing = 512

// seqState is one retained replica state: the graph after applying WAL
// records 1..seq.
type seqState[G ligra.Graph] struct {
	seq uint64
	g   G
}

// Replica tails a primary's WAL record stream and serves reads
// addressed by WAL sequence number. Each applied record yields an
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
type Replica[G ligra.Graph, E any] struct {
	primary  string
	codec    stream.Codec[E]
	snap     stream.SnapshotCodec[G]
	apply    func(g G, runs []stream.CommitRun[E]) G
	weighted bool
	shardID  int
	shards   int
	ringCap  int
	opts     Options
	dedup    *Dedup

	promoted atomic.Bool

	smu     sync.Mutex
	states  []seqState[G] // ascending seq; contiguous between snapshot jumps
	applied uint64
	cur     G

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	stop     chan struct{}
	wg       sync.WaitGroup
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
	return &Replica[G, E]{
		primary:  addr,
		codec:    codec,
		snap:     snap,
		apply:    apply,
		weighted: weighted,
		shardID:  shardID,
		shards:   shards,
		ringCap:  ringCap,
		opts:     o,
		dedup:    NewDedup(o.DedupWindow),
		cur:      empty,
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
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

// role is the identity the replica confirms in Hello and Health.
func (r *Replica[G, E]) role() uint8 {
	if r.promoted.Load() {
		return rolePromoted
	}
	return roleReplica
}

// Serve starts the tail loop (once) and accepts read connections on ln
// until Close. Blocks.
func (r *Replica[G, E]) Serve(ln net.Listener) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		ln.Close()
		return errors.New("remote: replica closed")
	}
	r.ln = ln
	r.mu.Unlock()
	r.tailOnce.Do(func() {
		r.wg.Add(1)
		go r.tailLoop()
	})
	for {
		nc, err := ln.Accept()
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			nc.Close()
			return nil
		}
		r.conns[nc] = struct{}{}
		r.wg.Add(1)
		r.mu.Unlock()
		go r.handle(nc)
	}
}

// Close stops the tail loop and every read connection.
func (r *Replica[G, E]) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	ln := r.ln
	for nc := range r.conns {
		nc.Close()
	}
	r.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	r.wg.Wait()
}

func (r *Replica[G, E]) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
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
	if err := handshake(nc, bw, hi, r.opts.WriteTimeout); err != nil {
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

// applyRec applies one shipped WAL record, retaining the new state.
// Idempotency notes on Noted* records are shadowed into the replica's
// dedup window, so a promotion can answer retried submits the dead
// primary already committed.
func (r *Replica[G, E]) applyRec(body []byte) error {
	d := rpc.NewBody(body)
	seq := d.U64()
	kind := wal.Kind(d.U8())
	width := int(d.U8())
	count := d.U32()
	plen := int(count) * width
	if kind.HasNote() {
		plen += wal.NoteLen
	}
	payload := d.Bytes(plen)
	if err := d.Err(); err != nil {
		return err
	}
	if width != r.codec.Width {
		return fmt.Errorf("remote: tail record width %d, codec %d", width, r.codec.Width)
	}
	r.smu.Lock()
	defer r.smu.Unlock()
	if seq <= r.applied {
		return nil // already covered (file/live overlap on the server)
	}
	if r.applied != 0 && seq != r.applied+1 {
		return fmt.Errorf("remote: tail gap: applied %d, got %d", r.applied, seq)
	}
	if kind.HasNote() {
		r.dedup.Observe(binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:]))
		payload = payload[wal.NoteLen:]
	}
	edges := make([]E, count)
	for i := range edges {
		edges[i] = r.codec.Decode(payload[i*width:])
	}
	r.cur = r.apply(r.cur, []stream.CommitRun[E]{{Del: kind.IsDelete(), Edges: edges}})
	r.applied = seq
	r.pushStateLocked(seq, r.cur)
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
	Applied   uint64 `json:"applied"`
	States    int    `json:"states"`
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

// handle serves one connection: Hello, by-seq Reads, Pin/Release,
// Health, Stats — and, once promoted, Submit/Flush. The reply path is
// mutexed because dedup waiters registered by duplicate submits may
// fire from another connection's commit.
func (r *Replica[G, E]) handle(nc net.Conn) {
	defer r.wg.Done()
	defer func() {
		nc.Close()
		r.mu.Lock()
		delete(r.conns, nc)
		r.mu.Unlock()
	}()
	bw := bufio.NewWriterSize(nc, 1<<16)
	var wmu sync.Mutex
	var enc rpc.Encoder
	reply := func(verb rpc.Verb, flags uint8, id uint64, build func(e *rpc.Encoder)) error {
		wmu.Lock()
		defer wmu.Unlock()
		enc.Begin(verb, flags|rpc.FlagResp, id)
		if build != nil {
			build(&enc)
		}
		if err := nc.SetWriteDeadline(time.Now().Add(serverWriteTimeout)); err != nil {
			return err
		}
		if _, err := enc.WriteTo(bw); err != nil {
			return err
		}
		return bw.Flush()
	}
	replyErr := func(verb rpc.Verb, id uint64, flags uint8, msg string) error {
		return reply(verb, rpc.FlagErr|flags, id, func(e *rpc.Encoder) { e.String(msg) })
	}
	replyDeduped := func(verb rpc.Verb, id uint64, stamp uint64) {
		if stamp == 0 {
			stamp = r.Applied()
			if stamp == 0 {
				stamp = 1
			}
		}
		reply(verb, rpc.FlagDeduped, id, func(e *rpc.Encoder) { e.U64(stamp) })
	}
	rd := rpc.NewReader(bufio.NewReaderSize(nc, 1<<16))
	var diff delta // delta-read scratch, reused across requests
	for {
		m, err := rd.Next()
		if err != nil {
			return
		}
		switch m.Verb {
		case rpc.VerbHello:
			d := rpc.NewBody(m.Body)
			proto := d.U32()
			shard := int(d.U32())
			shards := int(d.U32())
			weighted := d.U8() != 0
			if err := d.Err(); err != nil {
				err = replyErr(m.Verb, m.ReqID, 0, err.Error())
			} else if proto != rpc.ProtoVersion {
				err = replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("protocol version %d, server speaks %d", proto, rpc.ProtoVersion))
			} else if shard != r.shardID || shards != r.shards || weighted != r.weighted {
				err = replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("replica is shard %d/%d weighted=%v", r.shardID, r.shards, r.weighted))
			} else {
				err = reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
					e.U32(rpc.ProtoVersion)
					e.U32(uint32(r.shardID))
					e.U32(uint32(r.shards))
					if r.weighted {
						e.U8(1)
					} else {
						e.U8(0)
					}
					e.U8(r.role())
					e.U8(uint8(r.codec.Width))
				})
			}
			if err != nil {
				return
			}
		case rpc.VerbRead:
			seq, lo, base, err := readRequest(m.Body)
			if err != nil {
				if replyErr(m.Verb, m.ReqID, 0, err.Error()) != nil {
					return
				}
				continue
			}
			if m.Flags&rpc.FlagBySeq == 0 {
				if replyErr(m.Verb, m.ReqID, 0, "replica serves by-seq reads only") != nil {
					return
				}
				continue
			}
			r.reads.Add(1)
			g, ok := r.stateAt(seq)
			if !ok {
				r.lagging.Add(1)
				if replyErr(m.Verb, m.ReqID, rpc.FlagLagging, fmt.Sprintf("seq %d not held (applied %d)", seq, r.Applied())) != nil {
					return
				}
				continue
			}
			// The base is whatever the ring still retains at that seq; a
			// retired one is answered from the empty version.
			var bg ligra.Graph
			if b, ok := r.stateAt(base); ok && base != 0 {
				bg = b
			}
			status, err := diff.diff(bg, g, lo)
			if err == nil {
				err = reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) { diff.encode(e, status) })
			} else {
				err = replyErr(m.Verb, m.ReqID, 0, err.Error())
			}
			diff.reset()
			if err != nil {
				return
			}
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
			if reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
				e.U64(stamp)
				e.U64(applied)
			}) != nil {
				return
			}
		case rpc.VerbRelease:
			// Pins are not refcounted here; release is a courtesy no-op.
			if reply(m.Verb, 0, m.ReqID, nil) != nil {
				return
			}
		case rpc.VerbHealth:
			applied := r.Applied()
			if reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
				e.U8(r.role())
				e.U64(applied)
				e.U64(applied)
			}) != nil {
				return
			}
		case rpc.VerbSubmit:
			if !r.promoted.Load() {
				if replyErr(m.Verb, m.ReqID, 0, "replica not promoted; submits go to the primary") != nil {
					return
				}
				continue
			}
			if err := r.handlePromotedSubmit(m, reply, replyErr, replyDeduped); err != nil {
				return
			}
		case rpc.VerbFlush:
			if !r.promoted.Load() {
				if replyErr(m.Verb, m.ReqID, 0, "replica not promoted; flushes go to the primary") != nil {
					return
				}
				continue
			}
			// Promoted submits apply synchronously on their reader
			// goroutine, so everything this connection submitted before
			// the flush is already applied.
			applied := r.Applied()
			if reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
				e.U64(applied)
				e.U64(applied)
			}) != nil {
				return
			}
		case rpc.VerbStats:
			raw, err := json.Marshal(r.Stats())
			if err != nil {
				if replyErr(m.Verb, m.ReqID, 0, err.Error()) != nil {
					return
				}
				continue
			}
			if reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) { e.Bytes(raw) }) != nil {
				return
			}
		default:
			if replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("replica: unsupported verb %d", m.Verb)) != nil {
				return
			}
		}
	}
}

// handlePromotedSubmit applies one submit on a promoted replica:
// dedup-gated exactly like the primary, applied synchronously under
// the state lock, stamped with the advanced watermark. Not durable —
// the promoted replica is an availability bridge, and DESIGN.md's
// failure model spells out that trade.
func (r *Replica[G, E]) handlePromotedSubmit(
	m rpc.Msg,
	reply func(verb rpc.Verb, flags uint8, id uint64, build func(e *rpc.Encoder)) error,
	replyErr func(verb rpc.Verb, id uint64, flags uint8, msg string) error,
	replyDeduped func(verb rpc.Verb, id uint64, stamp uint64),
) error {
	d := rpc.NewBody(m.Body)
	cid := d.U64()
	cseq := d.U64()
	count := d.U32()
	w := r.codec.Width
	payload := d.Bytes(int(count) * w)
	if err := d.Err(); err != nil {
		return replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	if d.Len() != 0 {
		return replyErr(m.Verb, m.ReqID, 0, "trailing bytes in submit")
	}
	id := m.ReqID
	verb := m.Verb
	if cid != 0 {
		resolved := make(chan struct{})
		waiter := func(stamp uint64, errMsg string) {
			defer close(resolved)
			if errMsg != "" {
				replyErr(verb, id, 0, errMsg)
				return
			}
			replyDeduped(verb, id, stamp)
		}
		switch v, stamp := r.dedup.begin(cid, cseq, waiter); v {
		case dupDone:
			replyDeduped(verb, id, stamp)
			return nil
		case dupInflight:
			// Same connection-churn FIFO guard as the primary's gate:
			// hold this read loop until the original attempt resolves
			// so later frames cannot be applied ahead of it.
			<-resolved
			return nil
		case dupFenced, dupEvicted:
			return replyErr(verb, id, 0, fmt.Sprintf("submit (client %d, seq %d) %s: original outcome unknown, refusing re-apply", cid, cseq, v))
		}
	}
	edges := make([]E, count)
	for i := range edges {
		edges[i] = r.codec.Decode(payload[i*w:])
	}
	r.smu.Lock()
	r.cur = r.apply(r.cur, []stream.CommitRun[E]{{Del: m.Flags&rpc.FlagDel != 0, Edges: edges}})
	r.applied++
	stamp := r.applied
	r.pushStateLocked(stamp, r.cur)
	r.smu.Unlock()
	r.submits.Add(1)
	if cid != 0 {
		r.dedup.complete(cid, cseq, stamp)
	}
	return reply(verb, 0, id, func(e *rpc.Encoder) { e.U64(stamp) })
}
