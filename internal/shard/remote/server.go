package remote

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rpc"
	"repro/internal/stream"
)

// Server hosts one shard's engine behind the rpc frame protocol: the
// process side of cmd/shardd. Submits are acknowledged only after the
// remote commit (so an ack carries the same durability the engine's
// fsync policy gives a local ack), reads serve versions pinned per
// connection, and tail subscriptions ship the WAL record stream to read
// replicas. The connection layer is shared with Replica (endpoint.go).
type Server[G ligra.Graph, E any] struct {
	endpoint[G, E]
	eng *stream.Engine[G, E]
	dir string
	hub *tailHub
}

// NewServer wraps an engine. dir is the engine's durable data
// directory ("" disables tail subscriptions); the server registers the
// engine's OnWALAppend observer, so it must be constructed before the
// engine serves traffic.
func NewServer[G ligra.Graph, E any](eng *stream.Engine[G, E], codec stream.Codec[E], snap stream.SnapshotCodec[G], weighted bool, dir string, shardID, shards int) *Server[G, E] {
	s := &Server[G, E]{eng: eng, dir: dir}
	s.endpoint = endpoint[G, E]{
		role:     s,
		codec:    codec,
		snap:     snap,
		weighted: weighted,
		shardID:  shardID,
		shards:   shards,
		dedup:    NewDedup(0),
		hists:    new(dispatchHists),
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
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

func (s *Server[G, E]) id() uint8                     { return rolePrimary }
func (s *Server[G, E]) writable() bool                { return true }
func (s *Server[G, E]) stats() any                    { return s.eng.Stats() }
func (s *Server[G, E]) progress() (stamp, seq uint64) { return s.eng.Stamp(), s.eng.WALSeq() }

// commit enqueues a submit. The ack is deferred until the batch commits:
// an acked submit is part of the shard's committed prefix (and durable,
// under the per-commit fsync policy) before the client ever sees the ack.
func (s *Server[G, E]) commit(sc *serverConn[G, E], id uint64, del bool, edges []E, note stream.Note) error {
	p, err := s.eng.SubmitNoted(del, edges, note)
	if err != nil {
		return sc.settle(id, note, 0, err.Error())
	}
	go func() {
		stamp := p.Wait()
		msg := ""
		if stamp == 0 {
			msg = "batch nacked"
			if werr := s.eng.Err(); werr != nil {
				msg = werr.Error()
			}
		}
		sc.settle(id, note, stamp, msg)
	}()
	return nil
}

// resolve reads a version this connection has pinned, by stamp.
func (s *Server[G, E]) resolve(sc *serverConn[G, E], bySeq bool, stamp uint64) (G, uint8, error) {
	g, ok := s.held(sc, stamp)
	switch {
	case bySeq:
		return g, 0, errors.New("by-seq reads are served by replicas")
	case !ok:
		return g, 0, fmt.Errorf("stamp %d not pinned on this connection", stamp)
	}
	return g, 0, nil
}

func (s *Server[G, E]) held(sc *serverConn[G, E], stamp uint64) (G, bool) {
	if ent, ok := sc.pins[stamp]; ok {
		return ent.tx.Graph(), true
	}
	var zero G
	return zero, false
}

func (s *Server[G, E]) verb(sc *serverConn[G, E], m rpc.Msg) (bool, error) {
	switch m.Verb {
	case rpc.VerbPin:
		// The pin answers with its version's own WAL seq, the one a
		// replica read of this version must be addressed by.
		tx := s.eng.Begin()
		stamp, seq := tx.Stamp(), tx.Seq()
		if ent, ok := sc.pins[stamp]; ok {
			ent.refs++
			tx.Close()
		} else {
			sc.pins[stamp] = &pinEntry[G]{tx: tx, refs: 1}
		}
		return true, sc.reply(m.Verb, 0, m.ReqID, func(e *rpc.Encoder) {
			e.U64(stamp)
			e.U64(seq)
		})
	case rpc.VerbRelease:
		d := rpc.NewBody(m.Body)
		stamp := d.U64()
		if err := d.Err(); err != nil {
			return true, sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
		}
		ent, ok := sc.pins[stamp]
		if !ok {
			return true, sc.replyErr(m.Verb, m.ReqID, 0, fmt.Sprintf("stamp %d not pinned", stamp))
		}
		if ent.refs--; ent.refs == 0 {
			ent.tx.Close()
			delete(sc.pins, stamp)
		}
		return true, sc.reply(m.Verb, 0, m.ReqID, nil)
	case rpc.VerbFlush:
		// Prior submits on this connection were enqueued by this reader
		// goroutine before we got here, so the engine flush covers them.
		id, verb := m.ReqID, m.Verb
		go func() {
			stamp, err := s.eng.Flush()
			if err != nil {
				sc.replyErr(verb, id, 0, err.Error())
				return
			}
			seq := s.eng.WALSeq()
			sc.reply(verb, 0, id, func(e *rpc.Encoder) {
				e.U64(stamp)
				e.U64(seq)
			})
		}()
		return true, nil
	case rpc.VerbTail:
		return true, s.handleTail(sc, m)
	}
	return false, nil
}
