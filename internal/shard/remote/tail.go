package remote

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"repro/internal/rpc"
	"repro/internal/stream"
	"repro/internal/wal"
)

// tailSubCap buffers this many live records per subscriber before the
// subscriber is marked lost and must resync from the WAL files.
const tailSubCap = 1024

// tailRec is one shipped WAL record. Data is an immutable copy shared
// by every subscriber of the publish.
type tailRec struct {
	seq   uint64
	kind  wal.Kind
	width uint8
	count uint32
	data  []byte
}

// tailSub is one live subscription: a buffered record channel plus a
// lost flag set when the publisher could not keep the channel drained.
type tailSub struct {
	ch   chan tailRec
	lost bool // guarded by the hub mutex
}

// tailHub fans the engine's WAL append stream out to subscribers. The
// publish callback runs synchronously on the ingest goroutine (data
// aliases the WAL's frame buffer), so it copies the payload once
// and only ever does non-blocking sends.
type tailHub struct {
	mu   chMutex
	subs map[*tailSub]struct{}
}

// chMutex is a tiny channel-based mutex so tailHub has no lock-order
// relationship with anything else (publish runs on the ingest path).
type chMutex chan struct{}

func (m chMutex) lock()   { m <- struct{}{} }
func (m chMutex) unlock() { <-m }

func newTailHub() *tailHub {
	return &tailHub{mu: make(chMutex, 1), subs: make(map[*tailSub]struct{})}
}

// publish ships one appended WAL record to every live subscriber.
// Signature matches stream.Engine.OnWALAppend.
func (h *tailHub) publish(seq uint64, kind wal.Kind, width uint8, count uint32, data []byte) {
	h.mu.lock()
	if len(h.subs) == 0 {
		h.mu.unlock()
		return
	}
	rec := tailRec{seq: seq, kind: kind, width: width, count: count,
		data: append([]byte(nil), data...)}
	for sub := range h.subs {
		if sub.lost {
			continue
		}
		select {
		case sub.ch <- rec:
		default:
			sub.lost = true // subscriber resyncs from the WAL files
		}
	}
	h.mu.unlock()
}

func (h *tailHub) subscribe() *tailSub {
	sub := &tailSub{ch: make(chan tailRec, tailSubCap)}
	h.mu.lock()
	h.subs[sub] = struct{}{}
	h.mu.unlock()
	return sub
}

func (h *tailHub) unsubscribe(sub *tailSub) {
	h.mu.lock()
	delete(h.subs, sub)
	h.mu.unlock()
}

// takeLost atomically reads and clears the sub's lost flag.
func (h *tailHub) takeLost(sub *tailSub) bool {
	h.mu.lock()
	lost := sub.lost
	sub.lost = false
	h.mu.unlock()
	return lost
}

// handleTail subscribes the connection to the shard's commit log. Body:
// [after u64] — the last WAL seq the subscriber already holds. The
// server replies with a plain ack, then pushes (with the same request
// id) an optional VerbTailSnap bootstrap followed by VerbTailRec frames
// in strict sequence order, forever.
func (s *Server[G, E]) handleTail(sc *serverConn[G, E], m rpc.Msg) error {
	d := rpc.NewBody(m.Body)
	after := d.U64()
	if err := d.Err(); err != nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, err.Error())
	}
	if s.hub == nil {
		return sc.replyErr(m.Verb, m.ReqID, 0, "tail unavailable: shard has no durable log")
	}
	if err := sc.reply(m.Verb, 0, m.ReqID, nil); err != nil {
		return err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveTail(sc, m.ReqID, after)
	}()
	return nil
}

// serveTail streams the WAL record stream after seq `after` until the
// connection dies. Protocol per resync round: register a live
// subscription, SyncWAL (records published before registration are
// file-visible after the sync), bridge any truncation gap with a
// checkpoint snapshot, catch up from the WAL files, then serve the live
// channel with contiguous-seq dedupe. A lost flag (channel overflow)
// starts a new round; file-visible records cover whatever was dropped.
func (s *Server[G, E]) serveTail(sc *serverConn[G, E], id uint64, after uint64) {
	next := after + 1
	for {
		sub := s.hub.subscribe()
		if err := s.eng.SyncWAL(); err != nil {
			sc.replyErr(rpc.VerbTail, id, 0, err.Error())
			s.hub.unsubscribe(sub)
			return
		}
		oldest, err := wal.OldestSeq(s.dir)
		if err != nil {
			sc.replyErr(rpc.VerbTail, id, 0, err.Error())
			s.hub.unsubscribe(sub)
			return
		}
		if oldest > 0 && next < oldest {
			// The log was truncated past the subscriber: bootstrap from
			// the newest checkpoint (retention keeps one at or behind
			// the truncation point, so it covers the gap).
			snapSeq, err := s.sendTailSnap(sc, id)
			if err != nil {
				s.hub.unsubscribe(sub)
				return
			}
			if snapSeq+1 > next {
				next = snapSeq + 1
			}
		}
		// File catch-up: everything appended before the subscription
		// registered is replayable here; later records arrive live.
		_, err = wal.Replay(s.dir, next-1, func(r wal.Record) error {
			if err := sc.sendTailRec(id, r.Seq, r.Kind, r.Width, r.Count, r.Data); err != nil {
				return err
			}
			next = r.Seq + 1
			return nil
		})
		if errors.Is(err, os.ErrNotExist) {
			// A checkpoint truncated a segment while it was being read:
			// resync, which bootstraps past the truncation.
			s.hub.unsubscribe(sub)
			continue
		}
		if err != nil {
			s.hub.unsubscribe(sub)
			return
		}
		// Live stream: the channel may replay records the file pass
		// already covered (published after registration, appended
		// before the replay read them) — the seq check dedupes.
	live:
		for {
			select {
			case <-sc.done:
				s.hub.unsubscribe(sub)
				return
			case rec := <-sub.ch:
				if s.hub.takeLost(sub) {
					break live
				}
				if rec.seq < next {
					continue
				}
				if rec.seq > next {
					break live // gap: resync from the files
				}
				if err := sc.sendTailRec(id, rec.seq, rec.kind, rec.width, rec.count, rec.data); err != nil {
					s.hub.unsubscribe(sub)
					return
				}
				next = rec.seq + 1
			}
		}
		s.hub.unsubscribe(sub)
	}
}

// sendTailRec pushes one WAL record frame:
//
//	[seq u64][kind u8][width u8][count u32][payload]
//
// payload is the record's commit frame as the log holds it (run and note
// tables, then the edges; stream.DecodeCommit) — replicas shadow its
// notes into their own dedup window.
func (sc *serverConn[G, E]) sendTailRec(id, seq uint64, kind wal.Kind, width uint8, count uint32, data []byte) error {
	return sc.reply(rpc.VerbTailRec, 0, id, func(e *rpc.Encoder) {
		e.U64(seq)
		e.U8(uint8(kind))
		e.U8(width)
		e.U32(count)
		e.Bytes(data)
	})
}

// sendTailSnap pushes a checkpoint bootstrap frame [seq u64][snapshot]
// and returns the seq it covers.
func (s *Server[G, E]) sendTailSnap(sc *serverConn[G, E], id uint64) (uint64, error) {
	g, seq, ok, err := stream.LoadCheckpoint(s.dir, s.snap)
	if err != nil {
		sc.replyErr(rpc.VerbTail, id, 0, err.Error())
		return 0, err
	}
	if !ok {
		err := fmt.Errorf("log truncated but no checkpoint exists")
		sc.replyErr(rpc.VerbTail, id, 0, err.Error())
		return 0, err
	}
	var buf bytes.Buffer
	if err := s.snap.Write(&buf, g); err != nil {
		sc.replyErr(rpc.VerbTail, id, 0, err.Error())
		return 0, err
	}
	err = sc.reply(rpc.VerbTailSnap, 0, id, func(e *rpc.Encoder) {
		e.U64(seq)
		e.Bytes(buf.Bytes())
	})
	return seq, err
}
