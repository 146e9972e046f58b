package remote

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/stream"
)

// This file is the connection layer a shard primary (Server) and its read
// replica (Replica) share: the listener and connection table, the frame
// loop, the reply path, Hello, the exactly-once submit gate, reads, Health
// and Stats. Each role supplies only what differs by role (shardRole).

// serverWriteTimeout bounds each response frame write so one client
// that stops reading cannot wedge the connection's repliers.
const serverWriteTimeout = 15 * time.Second

// shardRole is what a primary or a replica adds to the shared connection
// layer.
type shardRole[G ligra.Graph, E any] interface {
	// id is the role byte Hello and Health confirm.
	id() uint8
	// progress is the latest stamp and WAL seq, as Health reports them.
	progress() (stamp, seq uint64)
	// stats is the VerbStats answer, sent JSON-encoded.
	stats() any
	// writable reports whether the endpoint takes submits and flushes.
	writable() bool
	// commit applies one submit that passed the exactly-once gate and
	// settles it (serverConn.settle), at once or when it commits.
	commit(sc *serverConn[G, E], id uint64, del bool, edges []E, note stream.Note) error
	// resolve returns the tree a read names. A refusal is an error;
	// flags carries rpc.FlagLagging when the client should read the
	// primary instead.
	resolve(sc *serverConn[G, E], bySeq bool, ref uint64) (g G, flags uint8, err error)
	// held returns the tree ref names while the endpoint still holds it:
	// the base a read names, answered from the empty version when gone.
	held(sc *serverConn[G, E], ref uint64) (G, bool)
	// verb serves the verbs only a role knows (pin, release, flush,
	// tail) and reports false for one it does not serve.
	verb(sc *serverConn[G, E], m rpc.Msg) (bool, error)
}

// endpoint is the state both roles keep for the connection layer; Server
// and Replica embed it, so Serve and Close are theirs.
type endpoint[G ligra.Graph, E any] struct {
	role    shardRole[G, E]
	codec   stream.Codec[E]
	snap    stream.SnapshotCodec[G]
	shardID int
	shards  int
	dedup   *Dedup
	hists   *dispatchHists // nil: dispatch latency is not recorded

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	stop   chan struct{} // closed by Close
	wg     sync.WaitGroup
}

// Payload is the set of edge payloads a remote shard serves: a read carries
// no weight or one float32 weight an edge, so a server, replica or client of
// any other payload would accept writes and fail every read. The
// constructors take V under it, and the compiler refuses the rest.
type Payload interface{ struct{} | float32 }

// hasPayload reports whether edges of wire width w carry a payload after
// their two ids. The hello's payload byte and a read's weight arrays derive
// from it, so neither can disagree with the edge codec.
func hasPayload(w int) bool { return w > stream.EdgeCodec.Width }

// dispatchHists records the synchronous dispatch latency of each RPC
// verb (indexed by rpc.Verb): parse-to-reply for reads, parse-to-enqueue
// for submits (the commit ack goes out asynchronously) and tail
// handshakes (the stream runs on its own goroutine). Exported by
// Server.RegisterMetrics as aspen_rpc_dispatch_seconds{verb=...}. Reads
// that name a base (base ≠ 0) are kept apart in delta (verb="read_delta")
// from those that ask from the empty version, so a slow read says which of
// the two it was.
type dispatchHists struct {
	verbs [rpc.NumVerbs]obs.Hist
	delta obs.Hist
}

// Serve accepts connections on ln until Close. Blocks.
func (e *endpoint[G, E]) Serve(ln net.Listener) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		ln.Close()
		return errors.New("remote: server closed")
	}
	e.ln = ln
	e.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if e.isClosed() {
				return nil
			}
			return err
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			nc.Close()
			return nil
		}
		e.conns[nc] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go e.handle(nc)
	}
}

// Close stops accepting, closes every connection (releasing a primary's
// pins) and waits for the handlers and a replica's tail loop. A primary's
// engine is not closed — its owner decides when ingest stops.
func (e *endpoint[G, E]) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.stop)
	ln := e.ln
	for nc := range e.conns {
		nc.Close()
	}
	e.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	e.wg.Wait()
}

func (e *endpoint[G, E]) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// pinEntry refcounts one pinned version held on behalf of a client
// connection; refs coalesce repeated pins of the same stamp.
type pinEntry[G ligra.Graph] struct {
	tx   stream.Tx[G]
	refs int
}

// serverConn is per-connection handler state. pins (a primary's) and the
// read scratch are touched only by the connection's reader goroutine; the
// frame writer is shared with async repliers (submit acks, dedup waiters
// fired by another connection's commit) under wmu.
type serverConn[G ligra.Graph, E any] struct {
	ep        *endpoint[G, E]
	nc        net.Conn
	done      chan struct{} // closed on connection teardown; stops tail streams
	wmu       sync.Mutex
	bw        *bufio.Writer
	enc       rpc.Encoder
	pins      map[uint64]*pinEntry[G]
	diff      delta // read scratch, reused across requests
	deltaRead bool  // the read being dispatched names a base
}

func (e *endpoint[G, E]) handle(nc net.Conn) {
	defer e.wg.Done()
	sc := &serverConn[G, E]{
		ep:   e,
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
		e.mu.Lock()
		delete(e.conns, nc)
		e.mu.Unlock()
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

// replyDeduped acks a duplicate submit from the dedup window. A
// journal-replayed entry has no recorded stamp; the endpoint's current
// stamp is at or above the original commit's and exactly as binding.
func (sc *serverConn[G, E]) replyDeduped(id uint64, stamp uint64) error {
	if stamp == 0 {
		stamp, _ = sc.ep.role.progress()
		stamp = max(stamp, 1)
	}
	return sc.reply(rpc.VerbSubmit, rpc.FlagDeduped, id, func(e *rpc.Encoder) { e.U64(stamp) })
}

// dispatch handles one request frame, timing it when the endpoint records
// dispatch latency. A returned error kills the connection (a reply that
// could not be written); per-request failures are relayed as error
// responses instead.
func (sc *serverConn[G, E]) dispatch(m rpc.Msg) error {
	h := sc.ep.hists
	if h == nil {
		return sc.serve(m)
	}
	start := time.Now()
	sc.deltaRead = false
	err := sc.serve(m)
	switch {
	case sc.deltaRead:
		h.delta.Observe(time.Since(start))
	case int(m.Verb) < len(h.verbs):
		h.verbs[m.Verb].Observe(time.Since(start))
	}
	return err
}

func (sc *serverConn[G, E]) serve(m rpc.Msg) error {
	ep := sc.ep
	switch m.Verb {
	case rpc.VerbHello:
		return sc.handleHello(m)
	case rpc.VerbSubmit, rpc.VerbFlush:
		if !ep.role.writable() {
			return sc.replyErr(m.Verb, m.ReqID, 0, "replica not promoted; writes go to the primary")
		}
		if m.Verb == rpc.VerbSubmit {
			return sc.handleSubmit(m)
		}
		// A flush covers what the role's commit path has taken: its own.
	case rpc.VerbRead:
		return sc.handleRead(m)
	case rpc.VerbHealth:
		stamp, seq := ep.role.progress()
		return sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
			e.U8(ep.role.id())
			e.U64(stamp)
			e.U64(seq)
		})
	case rpc.VerbStats:
		raw, err := json.Marshal(ep.role.stats())
		if err != nil {
			return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
		}
		return sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) { e.Bytes(raw) })
	}
	if ok, err := ep.role.verb(sc, m); ok {
		return err
	}
	return sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("unsupported verb %d", m.Verb))
}

func (sc *serverConn[G, E]) handleHello(m rpc.Msg) error {
	ep := sc.ep
	d := rpc.NewBody(m.Body)
	proto, shard, shards, weighted := d.U32(), int(d.U32()), int(d.U32()), d.U8() != 0
	switch {
	case d.Err() != nil:
		return sc.replyErr(m.Verb, m.ReqID, 0, d.Err().Error())
	case proto != rpc.ProtoVersion:
		return sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("protocol version %d, server speaks %d", proto, rpc.ProtoVersion))
	case shard != ep.shardID || shards != ep.shards || weighted != hasPayload(ep.codec.Width):
		return sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("this is shard %d/%d weighted=%v, client wants %d/%d weighted=%v",
			ep.shardID, ep.shards, hasPayload(ep.codec.Width), shard, shards, weighted))
	}
	return sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
		e.U32(rpc.ProtoVersion)
		e.U32(uint32(ep.shardID))
		e.U32(uint32(ep.shards))
		if hasPayload(ep.codec.Width) {
			e.U8(1)
		} else {
			e.U8(0)
		}
		e.U8(ep.role.id())
		e.U8(uint8(ep.codec.Width))
	})
}

func (sc *serverConn[G, E]) handleSubmit(m rpc.Msg) error {
	ep := sc.ep
	d := rpc.NewBody(m.Body)
	cid, cseq, count := d.U64(), d.U64(), d.U32()
	w := ep.codec.Width
	payload := d.Bytes(int(count) * w)
	if err := d.Err(); err != nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	if d.Len() != 0 {
		return sc.replyErr(m.Verb, m.ReqID, 0, "trailing bytes in submit")
	}
	id := m.ReqID
	var note stream.Note
	if cid != 0 {
		note = stream.Note{Client: cid, Seq: cseq}
		// Exactly-once gate: a retransmit of a submit we already
		// committed (or are committing) is answered from the window,
		// never re-applied. The waiter may fire on this connection for
		// a duplicate whose original attempt arrived on another.
		resolved := make(chan struct{})
		waiter := func(stamp uint64, errMsg string) {
			defer close(resolved)
			if errMsg != "" {
				sc.replyErr(rpc.VerbSubmit, id, 0, errMsg)
				return
			}
			sc.replyDeduped(id, stamp)
		}
		switch v, stamp := ep.dedup.begin(cid, cseq, waiter); v {
		case dupDone:
			sc.replyDeduped(id, stamp)
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
			return sc.replyErr(m.Verb, id, 0, fmt.Sprintf("submit (client %d, seq %d) %s: original outcome unknown, refusing re-apply", cid, cseq, v))
		}
	}
	edges := make([]E, count)
	for i := range edges {
		edges[i] = ep.codec.Decode(payload[i*w:])
	}
	return ep.role.commit(sc, id, m.Flags&rpc.FlagDel != 0, edges, note)
}

// settle records a submit's outcome in the dedup window and answers it:
// the commit stamp, or errMsg when the batch did not commit.
func (sc *serverConn[G, E]) settle(id uint64, note stream.Note, stamp uint64, errMsg string) error {
	if errMsg != "" {
		if note.Client != 0 {
			sc.ep.dedup.abort(note.Client, note.Seq, errMsg)
		}
		return sc.replyErr(rpc.VerbSubmit, id, 0, errMsg)
	}
	if note.Client != 0 {
		sc.ep.dedup.complete(note.Client, note.Seq, stamp)
	}
	if faults.Hit("remote.submit.ack") != nil {
		// Injected ack loss: the commit stands, the ack vanishes —
		// the client's retry must be answered from the window.
		sc.nc.Close()
		return nil
	}
	return sc.reply(rpc.VerbSubmit, 0, id, func(e *rpc.Encoder) { e.U64(stamp) })
}

// handleRead serves a read, [ref u64][lo u32][base u64]: the chunk from
// vertex lo of version ref, as the diff from the base the client names
// when the endpoint still holds it, else from the empty version. It reads
// the two tree snapshots only and never builds a flat view.
func (sc *serverConn[G, E]) handleRead(m rpc.Msg) error {
	d := rpc.NewBody(m.Body)
	ref, lo, base := d.U64(), d.U32(), d.U64()
	if err := d.Err(); err != nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	sc.deltaRead = base != 0
	cur, flags, err := sc.ep.role.resolve(sc, m.Flags&rpc.FlagBySeq != 0, ref)
	if err != nil {
		return sc.replyErr(m.Verb, m.ReqID, flags, err.Error())
	}
	var from ligra.Graph
	if b, ok := sc.ep.role.held(sc, base); ok && base != 0 {
		from = b
	}
	status, err := sc.diff.diff(from, cur, lo)
	if err == nil {
		err = sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) { sc.diff.encode(e, status) })
	} else {
		err = sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	sc.diff.reset()
	return err
}
