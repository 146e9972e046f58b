package stream

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspen"
)

// syncHold is a durable engine under SyncEveryCommit whose next fsync,
// once armed, parks in the WAL's "sync" failpoint until release and then
// returns result. applied counts the engine's finished applies.
type syncHold struct {
	e        *Engine[aspen.Graph, aspen.Edge]
	dir      string
	applied  atomic.Int64
	armed    atomic.Bool
	entered  chan struct{}
	release  chan struct{}
	released bool
}

func newSyncHold(t *testing.T, result error) *syncHold {
	t.Helper()
	h := &syncHold{dir: t.TempDir(), entered: make(chan struct{}), release: make(chan struct{})}
	apply := func(g aspen.Graph, runs []CommitRun[aspen.Edge]) aspen.Graph {
		g = ApplyRuns(g, runs)
		h.applied.Add(1)
		return g
	}
	d := Durability{Dir: h.dir, Policy: SyncEveryCommit, Fail: func(op string) error {
		if op == "sync" && h.armed.CompareAndSwap(true, false) {
			close(h.entered)
			<-h.release
			return result
		}
		return nil
	}}
	e, err := Recover(aspen.NewGraph(testParams()), apply, Options{}, d, EdgeCodec, GraphSnapshotCodec(testParams()))
	if err != nil {
		t.Fatal(err)
	}
	h.e = e
	t.Cleanup(e.Close)
	t.Cleanup(h.unpause) // runs first: Close waits for the held commit
	return h
}

func (h *syncHold) unpause() {
	if !h.released {
		h.released = true
		close(h.release)
	}
}

// commit inserts edges and waits for the ack.
func (h *syncHold) commit(t *testing.T, edges []aspen.Edge) uint64 {
	t.Helper()
	p, err := h.e.Insert(edges)
	if err != nil {
		t.Fatal(err)
	}
	return p.Wait()
}

// holdNext arms the failpoint, submits edges, and returns once that
// commit's fsync is parked and its apply has returned (the apply count
// reaches applies): the commit is computed but must not be visible yet.
func (h *syncHold) holdNext(t *testing.T, edges []aspen.Edge, applies int64) Pending {
	t.Helper()
	h.armed.Store(true)
	p, err := h.e.Insert(edges)
	if err != nil {
		t.Fatal(err)
	}
	<-h.entered
	for deadline := time.Now().Add(5 * time.Second); h.applied.Load() < applies; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the apply did not run while the commit's fsync was held (%d applies)", h.applied.Load())
		}
	}
	// Leave a wrong publish or ack the time to happen before looking.
	time.Sleep(20 * time.Millisecond)
	return p
}

// checkPin pins the engine and checks it reads stamp, WAL seq and graph g.
func (h *syncHold) checkPin(t *testing.T, when string, stamp uint64, g aspen.Graph) {
	t.Helper()
	tx := h.e.Begin()
	defer tx.Close()
	if tx.Stamp() != stamp || tx.Seq() != stamp || !tx.Graph().Equal(g) {
		t.Fatalf("%s: pin reads stamp %d, seq %d, %d edges; want stamp and seq %d, %d edges",
			when, tx.Stamp(), tx.Seq(), tx.Graph().NumEdges(), stamp, g.NumEdges())
	}
}

func acked(p Pending) bool {
	select {
	case <-p.Done():
		return true
	default:
		return false
	}
}

// TestSyncHeldCommitAppliedNotPublished holds a commit in its fsync: its
// apply finishes meanwhile, but a pin still reads the previous version and
// the submitter is not acked until the fsync returns; then the commit
// publishes the snapshot it computed and acks.
func TestSyncHeldCommitAppliedNotPublished(t *testing.T) {
	h := newSyncHold(t, nil)
	a, b := mkEdges(0, 5), mkEdges(10, 15)
	gA := aspen.NewGraph(testParams()).InsertEdges(a)
	if s := h.commit(t, a); s != 1 {
		t.Fatalf("first commit stamp %d, want 1", s)
	}

	p := h.holdNext(t, b, 2)
	h.checkPin(t, "fsync held", 1, gA)
	if acked(p) {
		t.Fatal("a commit was acknowledged while its fsync was held")
	}
	// Not Stats: its WAL segment count waits on the log lock the held
	// fsync keeps.
	if c, g := h.e.commits.Load(), h.e.gate.Holds()+h.e.gate.Declined(); c != 1 || g != 2 {
		t.Fatalf("fsync held: %d commits published, %d applies gated or declined; want 1 and 2", c, g)
	}

	h.unpause()
	if s := p.Wait(); s != 2 {
		t.Fatalf("released commit acked with stamp %d, want 2", s)
	}
	h.checkPin(t, "fsync returned", 2, gA.InsertEdges(b))
	if got := h.applied.Load(); got != 2 {
		t.Fatalf("%d applies for two commits: the held one must not be recomputed", got)
	}
}

// TestSyncFailureDropsAppliedCommit fails the fsync of a commit whose
// apply has already run: no pin ever sees it, it and every later batch
// are nacked, Err names the sync error, and recovery yields a committed
// prefix holding every acked batch.
func TestSyncFailureDropsAppliedCommit(t *testing.T) {
	errSync := errors.New("injected fsync failure")
	h := newSyncHold(t, errSync)
	a, b, c := mkEdges(0, 5), mkEdges(10, 15), mkEdges(20, 25)
	gA := aspen.NewGraph(testParams()).InsertEdges(a)
	if s := h.commit(t, a); s != 1 {
		t.Fatalf("first commit stamp %d, want 1", s)
	}

	pb := h.holdNext(t, b, 2)
	pc, err := h.e.Insert(c) // queued behind the held commit
	if err != nil {
		t.Fatal(err)
	}
	h.checkPin(t, "fsync held", 1, gA)
	if acked(pb) {
		t.Fatal("a commit was acknowledged while its fsync was held")
	}

	h.unpause()
	if s := pb.Wait(); s != 0 {
		t.Fatalf("commit whose fsync failed acked with stamp %d", s)
	}
	if s := pc.Wait(); s != 0 {
		t.Fatalf("batch queued behind the failed commit acked with stamp %d", s)
	}
	if s := h.commit(t, mkEdges(30, 35)); s != 0 {
		t.Fatalf("batch submitted after the failure acked with stamp %d", s)
	}
	if s, err := h.e.Flush(); err != nil || s != 0 {
		t.Fatalf("Flush after the failure = %d, %v", s, err)
	}
	h.checkPin(t, "fsync failed", 1, gA)
	if !errors.Is(h.e.Err(), errSync) {
		t.Fatalf("Err() = %v, want the fsync error", h.e.Err())
	}

	h.e.Close()
	g, _, err := LoadGraph(testParams(), h.dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	// The failpoint flushed the frame before failing, so the unacked
	// commit may survive in the log; the acked one must.
	if !g.Equal(gA) && !g.Equal(gA.InsertEdges(b)) {
		t.Fatalf("recovered %d edges: neither the acked prefix (%d) nor one commit past it", g.NumEdges(), gA.NumEdges())
	}
}
