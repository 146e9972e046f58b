package remote

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/faults"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/stream"
)

// serverWriteTimeout bounds each response frame write so one client
// that stops reading cannot wedge the connection's repliers.
const serverWriteTimeout = 15 * time.Second

// Read response chunking: one chunk stops after this many vertices or
// once it has gathered at least this many edges, whichever comes
// first, bounding the response frame well under rpc.MaxFrame.
const (
	maxReadVerts = 1 << 17
	maxReadEdges = 1 << 20
)

// Server hosts one shard's engine behind the rpc frame protocol: the
// process side of cmd/shardd. Submits are acknowledged only after the
// remote commit (so an ack carries the same durability the engine's
// fsync policy gives a local ack), reads serve pinned versions, and
// tail subscriptions ship the WAL record stream to read replicas.
type Server[G ligra.Graph, E any] struct {
	eng      *stream.Engine[G, E]
	codec    stream.Codec[E]
	snap     stream.SnapshotCodec[G]
	weighted bool
	dir      string
	shardID  int
	shards   int
	hub      *tailHub
	dedup    *Dedup

	// verbHists records the synchronous dispatch latency of each RPC
	// verb (indexed by rpc.Verb): parse-to-reply for reads, parse-to-
	// enqueue for submits (the commit ack goes out asynchronously) and
	// tail handshakes (the stream runs on its own goroutine). Exported
	// by RegisterMetrics as aspen_rpc_dispatch_seconds{verb=...}. Reads
	// that name a base (base ≠ 0) are kept apart (verb="read_delta") from
	// those that ask from the empty version, so a slow read says which of
	// the two it was.
	verbHists     [rpc.NumVerbs]obs.Hist
	deltaReadHist obs.Hist

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps an engine. dir is the engine's durable data
// directory ("" disables tail subscriptions); the server registers the
// engine's OnWALAppend observer, so it must be constructed before the
// engine serves traffic.
func NewServer[G ligra.Graph, E any](eng *stream.Engine[G, E], codec stream.Codec[E], snap stream.SnapshotCodec[G], weighted bool, dir string, shardID, shards int) *Server[G, E] {
	s := &Server[G, E]{
		eng:      eng,
		codec:    codec,
		snap:     snap,
		weighted: weighted,
		dir:      dir,
		shardID:  shardID,
		shards:   shards,
		conns:    make(map[net.Conn]struct{}),
		dedup:    NewDedup(0),
	}
	if dir != "" {
		s.hub = newTailHub()
		eng.OnWALAppend(s.hub.publish)
	}
	return s
}

// SetDedup swaps in an externally built dedup window — the one the
// owner registered as stream.Durability.OnReplayNote before recovery,
// so submits retried across a server restart still dedup. Call before
// Serve.
func (s *Server[G, E]) SetDedup(d *Dedup) {
	if d != nil {
		s.dedup = d
	}
}

// NewGraphServer wraps an unweighted durable engine.
func NewGraphServer(eng *stream.Engine[aspen.Graph, aspen.Edge], p ctree.Params, dir string, shardID, shards int) *Server[aspen.Graph, aspen.Edge] {
	return NewServer(eng, stream.EdgeCodec, stream.GraphSnapshotCodec(p), false, dir, shardID, shards)
}

// NewWeightedServer wraps a weighted durable engine.
func NewWeightedServer(eng *stream.Engine[aspen.WeightedGraph, aspen.WeightedEdge], p ctree.Params, dir string, shardID, shards int) *Server[aspen.WeightedGraph, aspen.WeightedEdge] {
	return NewServer(eng, stream.WeightedEdgeCodec, stream.WeightedSnapshotCodec(p), true, dir, shardID, shards)
}

// Serve accepts connections on ln until Close. Blocks.
func (s *Server[G, E]) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("remote: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(nc)
	}
}

// Close stops accepting, closes every connection (releasing its pins)
// and waits for the handlers. The engine is not closed — its owner
// decides when ingest stops.
func (s *Server[G, E]) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// pinEntry refcounts one pinned version held on behalf of a client
// connection; refs coalesce repeated pins of the same stamp.
type pinEntry[G ligra.Graph] struct {
	tx   stream.Tx[G]
	refs int
}

// serverConn is per-connection handler state. The pins map is touched
// only by the connection's reader goroutine; the frame writer is
// shared with async submit/flush repliers under wmu.
type serverConn[G ligra.Graph, E any] struct {
	s    *Server[G, E]
	nc   net.Conn
	done chan struct{} // closed on connection teardown; stops tail streams
	wmu  sync.Mutex
	bw   *bufio.Writer
	enc  rpc.Encoder
	pins map[uint64]*pinEntry[G]
	diff delta // delta-read scratch, reused across requests
}

func (s *Server[G, E]) handle(nc net.Conn) {
	defer s.wg.Done()
	sc := &serverConn[G, E]{
		s:    s,
		nc:   nc,
		done: make(chan struct{}),
		bw:   bufio.NewWriterSize(nc, 1<<16),
		pins: make(map[uint64]*pinEntry[G]),
	}
	defer func() {
		close(sc.done)
		nc.Close()
		for _, p := range sc.pins {
			p.tx.Close()
		}
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	r := rpc.NewReader(bufio.NewReaderSize(nc, 1<<16))
	for {
		m, err := r.Next()
		if err != nil {
			return
		}
		if err := sc.dispatch(m); err != nil {
			return
		}
	}
}

// reply writes one response frame (thread-safe; async repliers share
// the connection writer).
func (sc *serverConn[G, E]) reply(verb rpc.Verb, flags uint8, id uint64, build func(e *rpc.Encoder)) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.enc.Begin(verb, flags|rpc.FlagResp, id)
	if build != nil {
		build(&sc.enc)
	}
	if err := sc.nc.SetWriteDeadline(time.Now().Add(serverWriteTimeout)); err != nil {
		return err
	}
	if _, err := sc.enc.WriteTo(sc.bw); err != nil {
		return err
	}
	return sc.bw.Flush()
}

// replyErr sends an error response.
func (sc *serverConn[G, E]) replyErr(verb rpc.Verb, id uint64, flags uint8, msg string) error {
	return sc.reply(verb, rpc.FlagErr|flags, id, func(e *rpc.Encoder) { e.String(msg) })
}

// dispatch handles one request frame. A returned error kills the
// connection (protocol violations); per-request failures are relayed
// as error responses instead.
func (sc *serverConn[G, E]) dispatch(m rpc.Msg) error {
	start := time.Now()
	err := sc.dispatchVerb(m)
	switch _, _, base, _ := readRequest(m.Body); {
	case m.Verb == rpc.VerbRead && base != 0:
		sc.s.deltaReadHist.Observe(time.Since(start))
	case int(m.Verb) < len(sc.s.verbHists):
		sc.s.verbHists[m.Verb].Observe(time.Since(start))
	}
	return err
}

func (sc *serverConn[G, E]) dispatchVerb(m rpc.Msg) error {
	switch m.Verb {
	case rpc.VerbHello:
		return sc.handleHello(m)
	case rpc.VerbSubmit:
		return sc.handleSubmit(m)
	case rpc.VerbFlush:
		return sc.handleFlush(m)
	case rpc.VerbPin:
		return sc.handlePin(m)
	case rpc.VerbRelease:
		return sc.handleRelease(m)
	case rpc.VerbRead:
		return sc.handleRead(m)
	case rpc.VerbStats:
		return sc.handleStats(m)
	case rpc.VerbTail:
		return sc.handleTail(m)
	case rpc.VerbHealth:
		return sc.handleHealth(m)
	default:
		return sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("unknown verb %d", m.Verb))
	}
}

func (sc *serverConn[G, E]) handleHello(m rpc.Msg) error {
	d := rpc.NewBody(m.Body)
	proto := d.U32()
	shard := int(d.U32())
	shards := int(d.U32())
	weighted := d.U8() != 0
	if err := d.Err(); err != nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	if proto != rpc.ProtoVersion {
		return sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("protocol version %d, server speaks %d", proto, rpc.ProtoVersion))
	}
	if shard != sc.s.shardID || shards != sc.s.shards {
		return sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("this is shard %d/%d, client wants %d/%d", sc.s.shardID, sc.s.shards, shard, shards))
	}
	if weighted != sc.s.weighted {
		return sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("server weighted=%v, client weighted=%v", sc.s.weighted, weighted))
	}
	return sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
		e.U32(rpc.ProtoVersion)
		e.U32(uint32(sc.s.shardID))
		e.U32(uint32(sc.s.shards))
		if sc.s.weighted {
			e.U8(1)
		} else {
			e.U8(0)
		}
		e.U8(rolePrimary)
		e.U8(uint8(sc.s.codec.Width))
	})
}

func (sc *serverConn[G, E]) handleSubmit(m rpc.Msg) error {
	d := rpc.NewBody(m.Body)
	cid := d.U64()
	cseq := d.U64()
	count := d.U32()
	w := sc.s.codec.Width
	payload := d.Bytes(int(count) * w)
	if err := d.Err(); err != nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	if d.Len() != 0 {
		return sc.replyErr(m.Verb, m.ReqID, 0, "trailing bytes in submit")
	}
	id := m.ReqID
	verb := m.Verb
	if cid != 0 {
		// Exactly-once gate: a retransmit of a submit we already
		// committed (or are committing) is answered from the window,
		// never re-applied. The waiter may fire on this connection for
		// a duplicate whose original attempt arrived on another.
		resolved := make(chan struct{})
		waiter := func(stamp uint64, errMsg string) {
			defer close(resolved)
			if errMsg != "" {
				sc.replyErr(verb, id, 0, errMsg)
				return
			}
			sc.replyDeduped(verb, id, stamp)
		}
		switch v, stamp := sc.s.dedup.begin(cid, cseq, waiter); v {
		case dupDone:
			sc.replyDeduped(verb, id, stamp)
			return nil
		case dupInflight:
			// The original attempt is still committing — possibly on
			// another connection whose kernel buffer the server is
			// still draining. Block this read loop until it resolves,
			// so a later frame on this connection cannot be applied
			// ahead of it: the client's per-shard FIFO must survive
			// connection churn.
			<-resolved
			return nil
		case dupFenced, dupEvicted:
			return sc.replyErr(verb, id, 0, fmt.Sprintf("submit (client %d, seq %d) %s: original outcome unknown, refusing re-apply", cid, cseq, v))
		}
	}
	edges := make([]E, count)
	for i := range edges {
		edges[i] = sc.s.codec.Decode(payload[i*w:])
	}
	var note stream.Note
	if cid != 0 {
		note = stream.Note{Client: cid, Seq: cseq}
	}
	p, err := sc.s.eng.SubmitNoted(m.Flags&rpc.FlagDel != 0, edges, note)
	if err != nil {
		if cid != 0 {
			sc.s.dedup.abort(cid, cseq, err.Error())
		}
		return sc.replyErr(verb, id, 0, err.Error())
	}
	// The ack is deferred until the batch commits: an acked submit is
	// part of the shard's committed prefix (and durable, under the
	// per-commit fsync policy) before the client ever sees the ack.
	go func() {
		stamp := p.Wait()
		if stamp == 0 {
			msg := "batch nacked"
			if werr := sc.s.eng.Err(); werr != nil {
				msg = werr.Error()
			}
			if cid != 0 {
				sc.s.dedup.abort(cid, cseq, msg)
			}
			sc.replyErr(verb, id, 0, msg)
			return
		}
		if cid != 0 {
			sc.s.dedup.complete(cid, cseq, stamp)
		}
		if faults.Hit("remote.submit.ack") != nil {
			// Injected ack loss: the commit stands, the ack vanishes —
			// the client's retry must be answered from the window.
			sc.nc.Close()
			return
		}
		sc.reply(verb, 0, id, func(e *rpc.Encoder) { e.U64(stamp) })
	}()
	return nil
}

// replyDeduped acks a duplicate submit from the dedup window. A
// journal-replayed entry has no recorded stamp; the engine's current
// stamp is at or above the original commit's and exactly as binding.
func (sc *serverConn[G, E]) replyDeduped(verb rpc.Verb, id uint64, stamp uint64) {
	if stamp == 0 {
		stamp = sc.s.eng.Stamp()
		if stamp == 0 {
			stamp = 1
		}
	}
	sc.reply(verb, rpc.FlagDeduped, id, func(e *rpc.Encoder) { e.U64(stamp) })
}

func (sc *serverConn[G, E]) handleHealth(m rpc.Msg) error {
	return sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
		e.U8(rolePrimary)
		e.U64(sc.s.eng.Stamp())
		e.U64(sc.s.eng.WALSeq())
	})
}

func (sc *serverConn[G, E]) handleFlush(m rpc.Msg) error {
	// Prior submits on this connection were enqueued by this reader
	// goroutine before we got here, so the engine flush covers them.
	id := m.ReqID
	verb := m.Verb
	go func() {
		stamp, err := sc.s.eng.Flush()
		if err != nil {
			sc.replyErr(verb, id, 0, err.Error())
			return
		}
		seq := sc.s.eng.WALSeq()
		sc.reply(verb, 0, id, func(e *rpc.Encoder) {
			e.U64(stamp)
			e.U64(seq)
		})
	}()
	return nil
}

func (sc *serverConn[G, E]) handlePin(m rpc.Msg) error {
	tx := sc.s.eng.Begin()
	stamp := tx.Stamp()
	if ent, ok := sc.pins[stamp]; ok {
		ent.refs++
		tx.Close()
	} else {
		sc.pins[stamp] = &pinEntry[G]{tx: tx, refs: 1}
	}
	seq := sc.s.eng.WALSeq()
	return sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
		e.U64(stamp)
		e.U64(seq)
	})
}

func (sc *serverConn[G, E]) handleRelease(m rpc.Msg) error {
	d := rpc.NewBody(m.Body)
	stamp := d.U64()
	if err := d.Err(); err != nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	ent, ok := sc.pins[stamp]
	if !ok {
		return sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("stamp %d not pinned", stamp))
	}
	ent.refs--
	if ent.refs == 0 {
		ent.tx.Close()
		delete(sc.pins, stamp)
	}
	return sc.reply(m.Verb, 0, m.ReqID, nil)
}

// readRequest parses a VerbRead body, [ref u64][lo u32][base u64]: the
// chunk starting at vertex lo of version ref, as the diff from version base
// (0: the empty version).
func readRequest(body []byte) (ref uint64, lo uint32, base uint64, err error) {
	d := rpc.NewBody(body)
	ref, lo, base = d.U64(), d.U32(), d.U64()
	return ref, lo, base, d.Err()
}

// handleRead serves a pinned version as the diff from the base the client
// names, when this connection has it pinned, else from the empty version.
// It reads the two tree snapshots only and never builds a flat view.
func (sc *serverConn[G, E]) handleRead(m rpc.Msg) error {
	ref, lo, base, err := readRequest(m.Body)
	if err != nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	if m.Flags&rpc.FlagBySeq != 0 {
		return sc.replyErr(m.Verb, m.ReqID, 0, "by-seq reads are served by replicas")
	}
	ent, ok := sc.pins[ref]
	if !ok {
		return sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("stamp %d not pinned on this connection", ref))
	}
	var bg ligra.Graph
	if bent, ok := sc.pins[base]; ok && base != 0 {
		bg = bent.tx.Graph()
	}
	status, err := sc.diff.diff(bg, ent.tx.Graph(), lo)
	if err != nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	err = sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) { sc.diff.encode(e, status) })
	sc.diff.reset()
	return err
}

func (sc *serverConn[G, E]) handleStats(m rpc.Msg) error {
	raw, err := json.Marshal(sc.s.eng.Stats())
	if err != nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	return sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) { e.Bytes(raw) })
}
