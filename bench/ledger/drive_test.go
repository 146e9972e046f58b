package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspen"
	"repro/internal/csr"
	"repro/internal/ligra"
)

// fakeStore acknowledges a batch service after it was submitted, stamps
// acks 1, 2, 3, ..., and can stall inside submit, refuse a submit, or pin
// stale snapshots.
type fakeStore struct {
	service  time.Duration
	stallAt  int           // submit number that blocks for stall (backpressure)
	stall    time.Duration // how long
	refuseAt int           // submit number that fails; 0 for none
	stale    bool          // pins lag one stamp behind the acks

	mu        sync.Mutex
	submits   int
	inflight  int
	maxFlight int
	acked     atomic.Uint64
}

type fakeWaiter struct {
	s     *fakeStore
	ready time.Time
	stamp uint64
}

func (w fakeWaiter) wait() (vec, error) {
	time.Sleep(time.Until(w.ready))
	w.s.mu.Lock()
	w.s.inflight--
	w.s.mu.Unlock()
	w.s.acked.Store(w.stamp)
	return vec{w.stamp}, nil
}

func (s *fakeStore) submit(bool, []aspen.Edge) (waiter, error) {
	s.mu.Lock()
	s.submits++
	n := s.submits
	s.mu.Unlock()
	if n == s.refuseAt {
		return nil, errors.New("refused")
	}
	if n == s.stallAt {
		time.Sleep(s.stall)
	}
	s.mu.Lock()
	s.inflight++
	s.maxFlight = max(s.maxFlight, s.inflight)
	s.mu.Unlock()
	return fakeWaiter{s, time.Now().Add(s.service), uint64(n)}, nil
}

type fakePin struct{ stamp uint64 }

func (p fakePin) stamps() vec { return vec{p.stamp} }
func (p fakePin) flat() (ligra.Graph, error) {
	return csr.FromAdjacency([][]uint32{{1}, {0}, {3}, {2}}), nil
}
func (p fakePin) close() {}

func (s *fakeStore) begin() (pin, error) {
	stamp := s.acked.Load()
	if s.stale && stamp > 0 {
		stamp--
	}
	return fakePin{stamp}, nil
}
func (s *fakeStore) counters() counters           { return counters{} }
func (s *fakeStore) flatCounts() (uint64, uint64) { return 0, 0 }
func (s *fakeStore) close() error                 { return nil }

func someBatches(n int) []batch {
	return make([]batch, n)
}

func failures(r phaseResult) int {
	return r.submitErrs + r.ackErrs + r.pinErrs + r.uncovered
}

// A stall must inflate the latency of the batches it delays: they were due
// on schedule, so their clocks started then, however late they were sent.
func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	const rate, n = 200.0, 24 // one batch every 5 ms
	st := &fakeStore{service: time.Millisecond, stallAt: 6, stall: 100 * time.Millisecond}
	res := drive(st, someBatches(n), rate, n, true)
	if failures(res) != 0 {
		t.Fatalf("failures: %+v", res)
	}
	for i, bt := range res.times {
		if want := int64(float64(i) / rate * 1e9); bt.due != want {
			t.Fatalf("batch %d due at %d, want %d", i, bt.due, want)
		}
	}
	// Batch 5 (the sixth submit) stalls from 25 ms to 125 ms. Batch 10 was
	// due at 50 ms and cannot have been sent before 125 ms.
	late := res.times[10]
	if lateness := time.Duration(late.sent - late.due); lateness < 70*time.Millisecond {
		t.Errorf("generator lateness of batch 10 = %v, want the stall to show", lateness)
	}
	if fromDue := time.Duration(late.visible - late.due); fromDue < 70*time.Millisecond {
		t.Errorf("latency of batch 10 from its due time = %v: the stall is hidden", fromDue)
	}
	if fromSend := time.Duration(late.visible - late.sent); fromSend > 40*time.Millisecond {
		t.Errorf("latency from the send time = %v: expected it to look fast, the trap the due time avoids", fromSend)
	}
	// Before the stall, and once the generator has caught up, latency is the
	// service time again.
	for _, i := range []int{0, 2, n - 1} {
		if d := time.Duration(res.times[i].visible - res.times[i].due); d > 40*time.Millisecond {
			t.Errorf("batch %d latency %v: should not carry the stall", i, d)
		}
	}
	if share := res.lateShare(50 * time.Millisecond); share < 5.0/n || share > 18.0/n {
		t.Errorf("late share %v", share)
	}
	if res.backlog(int64(60*time.Millisecond)) < 5 || res.backlog(int64(time.Second)) != 0 {
		t.Errorf("backlog during the stall %d, after the run %d", res.backlog(int64(60*time.Millisecond)), res.backlog(int64(time.Second)))
	}
	if vis := res.visibleMs(); len(vis) != n || percentile(vis, 1) < 70 {
		t.Errorf("visible samples: %d, max %v ms", len(vis), percentile(vis, 1))
	}
}

func TestClosedLoopKeepsTheWindow(t *testing.T) {
	st := &fakeStore{service: 2 * time.Millisecond}
	res := drive(st, someBatches(40), 0, 4, false)
	if failures(res) != 0 || st.maxFlight > 4 || st.maxFlight < 2 {
		t.Errorf("failures %d, max in flight %d with a window of 4", failures(res), st.maxFlight)
	}
	if res.lastAck != (vec{40}) || res.elapsed <= 0 {
		t.Errorf("last ack %v after %v", res.lastAck, res.elapsed)
	}
}

func TestFailuresAreCounted(t *testing.T) {
	st := &fakeStore{service: time.Millisecond, refuseAt: 3}
	res := drive(st, someBatches(5), 500, 5, true)
	if res.submitErrs != 1 || !res.times[2].failed || failures(res) != 1 {
		t.Errorf("refused submit: %+v", res)
	}
	if len(res.visibleMs()) != 4 || res.lateShare(time.Second) != 1.0/5 {
		t.Errorf("a refused batch is late and has no latency: %v %v", res.visibleMs(), res.lateShare(time.Second))
	}

	st = &fakeStore{service: time.Millisecond, stale: true}
	res = drive(st, someBatches(5), 500, 5, true)
	if res.uncovered != 5 {
		t.Errorf("stale pins: %d acks uncovered, want 5", res.uncovered)
	}
}

func TestQueriesRunBothKernels(t *testing.T) {
	var never atomic.Bool
	res := queries(&fakeStore{}, &never, 5, 3, true)
	if res.ran != 5 || res.errs != 0 || len(res.times) != 3 || res.dropped != 2 {
		t.Fatalf("%+v", res)
	}
	for _, q := range res.times {
		if !(q.start <= q.pinned && q.pinned <= q.flat && q.flat <= q.bfs && q.bfs <= q.cc && q.cc <= q.closed) {
			t.Errorf("boundaries out of order: %+v", q)
		}
		if q.outcome != flatHit {
			t.Errorf("outcome %d: the fake's counters never move", q.outcome)
		}
	}
}

func TestSameEdges(t *testing.T) {
	ref := csr.FromAdjacency([][]uint32{{1, 2}, {0}, {0}})
	for _, c := range []struct {
		name string
		adj  [][]uint32
		want bool
	}{
		{"equal", [][]uint32{{1, 2}, {0}, {0}}, true},
		{"equal with a trailing isolated vertex", [][]uint32{{1, 2}, {0}, {0}, {}}, true},
		{"edge moved", [][]uint32{{1, 2}, {0}, {1}}, false},
		{"edge missing", [][]uint32{{1}, {0}, {0}}, false},
		{"edge extra", [][]uint32{{1, 2}, {0, 2}, {0}}, false},
		{"same count, other vertex", [][]uint32{{1}, {0}, {0}, {0}}, false},
	} {
		if got := sameEdges(csr.FromAdjacency(c.adj), ref); got != c.want {
			t.Errorf("%s: got %v", c.name, got)
		}
	}
}

func TestReferenceIsLastWriterWins(t *testing.T) {
	e := func(s, d uint32) aspen.Edge { return aspen.Edge{Src: s, Dst: d} }
	in := inputs{
		preload: []aspen.Edge{e(0, 1), e(1, 0), e(2, 3)},
		paced: []batch{
			{del: true, edges: []aspen.Edge{e(0, 1), e(9, 9)}}, // 9,9 was never there
			{edges: []aspen.Edge{e(0, 1), e(4, 0)}},            // 0,1 comes back
		},
		saturated: []batch{{del: true, edges: []aspen.Edge{e(2, 3)}}},
	}
	want := csr.FromAdjacency([][]uint32{{1}, {0}, {}, {}, {0}})
	if got := reference(in); !sameEdges(got, want) || got.NumEdges() != 3 {
		t.Errorf("reference has %d edges", got.NumEdges())
	}
}
