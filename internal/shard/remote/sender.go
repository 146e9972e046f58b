package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rpc"
)

// sendRec is one retryable request: a submit (or flush) whose body can
// be re-encoded verbatim, so a transport failure retransmits it instead
// of surfacing an error. Exactly-once comes from the (clientID,
// clientSeq) note inside the body — a retransmit the server already
// committed acks from its dedup window.
type sendRec struct {
	s           *sender
	verb        rpc.Verb
	flags       uint8
	build       func(e *rpc.Encoder)
	ca          *call
	expiry      time.Time     // total retry budget for this record
	ackDeadline time.Duration // per-attempt ack deadline (0 = none)
	sent        bool          // currently registered on a conn's pending map
	gen         uint64        // connection generation the record is in flight on
	tries       int
	lastErr     error
}

// sender serializes one shard's retryable stream: records go out FIFO,
// a transport failure requeues them (preserving order) and a single
// backoff timer paces reattempts. After failover() records flow to the
// promoted replica instead of the primary.
type sender struct {
	prim  *Conn
	repl  *Conn // may be nil
	opts  Options
	nstat *netCounters

	mu         sync.Mutex
	queue      []*sendRec
	failedOver bool
	attempts   int // consecutive failed pump rounds, for backoff
	timerSet   bool
	closed     bool
}

func newSender(prim, repl *Conn, opts Options, nstat *netCounters) *sender {
	return &sender{prim: prim, repl: repl, opts: opts, nstat: nstat}
}

// target returns the conn records currently flow to.
func (s *sender) target() *Conn {
	if s.failedOver && s.repl != nil {
		return s.repl
	}
	return s.prim
}

// enqueue hands a record to the sender; its call resolves when the
// request is acked, permanently refused, or out of retry budget.
func (s *sender) enqueue(rec *sendRec) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		rec.ca.deliverFinal(errors.New("remote: cluster closed"))
		return
	}
	s.queue = append(s.queue, rec)
	refused, err := s.pumpLocked()
	s.mu.Unlock()
	deliverAll(refused, err)
}

// pumpLocked sends every unsent record in FIFO order, pinned to one
// connection generation: in-flight records all ride the same (conn,
// dial) incarnation, and while any of them sit on a dead one — their
// teardown drain not yet landed — nothing newer goes out, or a retried
// record could overtake a later one on a fresh connection and break the
// shard's FIFO. On a transport error it stops (the failed record stays
// queued, unsent) and arms the backoff timer. When the endpoint refuses
// the connection itself (isPermanent: the hello named another shard,
// payload or role), every unsent record would be refused the same way: it
// takes them all off the queue and returns them with that error, for the
// caller to deliver once mu is released. mu held.
func (s *sender) pumpLocked() (refused []*sendRec, err error) {
	tgt := s.target()
	var pinned uint64 // gen the sent prefix rides; 0 = nothing in flight
	for _, rec := range s.queue {
		if rec.sent {
			pinned = rec.gen
			continue
		}
		rec.ca.deadline = 0
		if rec.ackDeadline > 0 {
			rec.ca.deadline = time.Now().Add(rec.ackDeadline).UnixNano()
		}
		gen, err := tgt.startPinned(rec.verb, rec.flags, rec.build, rec.ca, pinned)
		if isPermanent(err) {
			return s.takeUnsentLocked(), err
		}
		if err != nil {
			rec.lastErr = err
			s.scheduleLocked()
			return nil, nil
		}
		if rec.tries > 0 {
			s.nstat.retries.Add(1)
		}
		rec.tries++
		rec.sent = true
		rec.gen = gen
		pinned = gen
	}
	s.attempts = 0
	return nil, nil
}

// takeUnsentLocked removes every record not in flight from the queue and
// returns them in order. mu held.
func (s *sender) takeUnsentLocked() []*sendRec {
	var unsent []*sendRec
	kept := s.queue[:0]
	for _, rec := range s.queue {
		if rec.sent {
			kept = append(kept, rec)
		} else {
			unsent = append(unsent, rec)
		}
	}
	clear(s.queue[len(kept):])
	s.queue = kept
	return unsent
}

// deliverAll resolves each record's call with err, outside mu.
func deliverAll(recs []*sendRec, err error) {
	for _, rec := range recs {
		rec.ca.deliverFinal(err)
	}
}

// onOutcome routes a resolved call that belongs to rec. It returns
// true when the record was requeued for retry (outcome not final).
// Permanent errors — the server refused the request — surface; only
// transport-shaped failures retry.
func (s *sender) onOutcome(rec *sendRec, err error) bool {
	s.mu.Lock()
	if err == nil || isPermanent(err) || s.closed {
		s.removeLocked(rec)
		s.mu.Unlock()
		return false
	}
	rec.sent = false
	rec.lastErr = err
	if s.expiredLocked(rec) {
		s.removeLocked(rec)
		s.mu.Unlock()
		rec.ca.deliverFinal(s.budgetErr(rec))
		return true // we delivered the final outcome ourselves
	}
	s.scheduleLocked()
	s.mu.Unlock()
	return true
}

// expiredLocked reports whether rec is out of retry budget. mu held.
func (s *sender) expiredLocked(rec *sendRec) bool {
	return !rec.expiry.IsZero() && time.Now().After(rec.expiry)
}

func (s *sender) budgetErr(rec *sendRec) error {
	if rec.lastErr != nil {
		return fmt.Errorf("remote: retry budget exhausted: %w", rec.lastErr)
	}
	return errors.New("remote: retry budget exhausted")
}

// removeLocked deletes rec from the queue. mu held.
func (s *sender) removeLocked(rec *sendRec) {
	for i, r := range s.queue {
		if r == rec {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// scheduleLocked arms the single retry timer with the next backoff
// delay. mu held.
func (s *sender) scheduleLocked() {
	if s.timerSet || s.closed {
		return
	}
	s.timerSet = true
	d := s.opts.Backoff.delay(s.attempts)
	s.attempts++
	time.AfterFunc(d, s.retry)
}

// retry expires overdue records and pumps the rest.
func (s *sender) retry() {
	s.mu.Lock()
	s.timerSet = false
	if s.closed {
		s.mu.Unlock()
		return
	}
	var expired []*sendRec
	for i := 0; i < len(s.queue); {
		rec := s.queue[i]
		if !rec.sent && s.expiredLocked(rec) {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			expired = append(expired, rec)
			continue
		}
		i++
	}
	refused, err := s.pumpLocked()
	s.mu.Unlock()
	for _, rec := range expired {
		rec.ca.deliverFinal(s.budgetErr(rec))
	}
	deliverAll(refused, err)
}

// failover redirects the stream to the replica endpoint (which must
// have promoted itself). Records already in flight on the primary are
// left alone: its connection teardown requeues them, and the next pump
// sends them to the new target. Returns false when there is no replica
// or the stream already failed over.
func (s *sender) failover() bool {
	s.mu.Lock()
	if s.repl == nil || s.failedOver || s.closed {
		s.mu.Unlock()
		return false
	}
	s.failedOver = true
	s.attempts = 0
	refused, err := s.pumpLocked()
	s.mu.Unlock()
	deliverAll(refused, err)
	return true
}

// close fails every unsent record; sent records resolve through their
// connection's teardown.
func (s *sender) close() {
	s.mu.Lock()
	s.closed = true
	orphans := s.takeUnsentLocked()
	s.queue = nil
	s.mu.Unlock()
	deliverAll(orphans, errors.New("remote: cluster closed"))
}

// isPermanent reports whether err is a refusal (retrying would repeat it)
// rather than a transport failure: a server-side error, a lagging
// replica, or a hello the client refused.
func isPermanent(err error) bool {
	var se *ServerError
	return errors.As(err, &se) || errors.Is(err, ErrLagging) || errors.Is(err, errRefused)
}

// deliverFinal resolves a call outside the sender path.
func (ca *call) deliverFinal(err error) {
	if ca.onDone != nil {
		ca.onDone(err)
	}
	ca.done <- err
}
