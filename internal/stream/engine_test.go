package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
)

func testParams() ctree.Params { return ctree.Params{B: 8} }

func TestEngineCommitVisibility(t *testing.T) {
	e := NewGraphEngine(aspen.NewGraph(testParams()), Options{})
	defer e.Close()

	p, err := e.Insert(aspen.MakeUndirected([]aspen.Edge{{Src: 1, Dst: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	stamp := p.Wait()
	tx := e.Begin()
	if tx.Stamp() < stamp {
		t.Fatalf("transaction pinned stamp %d, committed %d", tx.Stamp(), stamp)
	}
	if !tx.Graph().HasEdge(1, 2) || !tx.Graph().HasEdge(2, 1) {
		t.Fatal("committed edge not visible")
	}
	tx.Close()

	p, err = e.Delete(aspen.MakeUndirected([]aspen.Edge{{Src: 1, Dst: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	p.Wait()
	tx = e.Begin()
	if tx.Graph().HasEdge(1, 2) {
		t.Fatal("deleted edge still visible")
	}
	tx.Close()
}

// TestEngineCoalescing checks that batches queued while a commit is in
// flight are folded into fewer commits, FIFO order preserved, and that
// every Pending resolves with a stamp at which its batch is visible.
func TestEngineCoalescing(t *testing.T) {
	// Gate the first apply so later submits deterministically pile up in
	// the queue while the first commit is "in flight".
	gate := make(chan struct{})
	var gated sync.Once
	e := New(aspen.NewGraph(testParams()),
		func(g aspen.Graph, runs []CommitRun[aspen.Edge]) aspen.Graph {
			gated.Do(func() { <-gate })
			return ApplyRuns(g, runs)
		},
		Options{QueueCap: 64, MaxCoalesce: 16})
	defer e.Close()

	if _, err := e.Insert([]aspen.Edge{{Src: 7, Dst: 8}}); err != nil {
		t.Fatal(err)
	}
	const k = 32
	pendings := make([]Pending, 0, k)
	for i := 0; i < k; i++ {
		u := uint32(1_000_000 + 2*i)
		p, err := e.Insert([]aspen.Edge{{Src: u, Dst: u + 1}})
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	// Interleave a delete of an early edge to exercise run splitting.
	pd, err := e.Delete([]aspen.Edge{{Src: 1_000_000, Dst: 1_000_001}})
	if err != nil {
		t.Fatal(err)
	}
	close(gate) // release the first commit; everything queued behind it
	for i, p := range pendings {
		stamp := p.Wait()
		tx := e.Begin()
		if tx.Stamp() < stamp {
			t.Fatalf("pinned %d < committed %d", tx.Stamp(), stamp)
		}
		u := uint32(1_000_000 + 2*i)
		if i > 0 && !tx.Graph().HasEdge(u, u+1) {
			t.Fatalf("edge %d not visible at its commit stamp", i)
		}
		tx.Close()
	}
	pd.Wait()
	tx := e.Begin()
	if tx.Graph().HasEdge(1_000_000, 1_000_001) {
		t.Fatal("FIFO violated: delete submitted after insert did not win")
	}
	tx.Close()

	st := e.Stats()
	if st.Batches != k+2 {
		t.Fatalf("batches = %d, want %d", st.Batches, k+2)
	}
	if st.Commits >= st.Batches {
		t.Fatalf("no coalescing happened: %d commits for %d batches", st.Commits, st.Batches)
	}
}

// TestGroupWaitsForTheRefill is the closed-loop case of coalescing: when a
// commit acknowledges a batch whose client resubmits at once, the next group
// (here the two batches queued behind that commit) waits for the resubmission
// instead of closing the moment its lane runs dry. Without the wait the pair
// and the refill commit apart, and a saturated closed-loop client's groups
// stay split in two for the rest of the stream. The loop's clock stands
// still until the group has taken the resubmission, so the 1 ms refill
// window cannot close first however slowly this goroutine is scheduled;
// then it jumps an hour, so a group that counted the resubmission among
// the queued batches it expects closes too.
func TestGroupWaitsForTheRefill(t *testing.T) {
	gate, applying := make(chan struct{}), make(chan struct{})
	var gated sync.Once
	e := New(aspen.NewGraph(testParams()),
		func(g aspen.Graph, runs []CommitRun[aspen.Edge]) aspen.Graph {
			gated.Do(func() { close(applying); <-gate })
			return ApplyRuns(g, runs)
		}, Options{})
	defer e.Close()
	stopped := time.Now()
	var released atomic.Bool
	e.now = func() time.Time { // set before the first batch hands the loop its clock
		if released.Load() {
			return stopped.Add(time.Hour)
		}
		return stopped
	}
	a, err := e.Insert(dummyBatch(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	<-applying // the loop committed batch a alone and blocks on the gate
	for i := uint32(1); i <= 2; i++ {
		if _, err := e.Insert(dummyBatch(1, 10*i)); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	a.Wait()
	d, err := e.Insert(dummyBatch(1, 30)) // the client's resubmission
	if err != nil {
		t.Fatal(err)
	}
	for len(e.queue) > 0 { // the queued pair's group takes it
		time.Sleep(time.Millisecond)
	}
	released.Store(true)
	d.Wait()
	if st := e.Stats(); st.Commits != 2 || st.Batches != 4 {
		t.Fatalf("%d batches in %d commits, want 4 in 2: the queued pair did not wait for the refill", st.Batches, st.Commits)
	}
}

// TestGroupCountsEachResubmissionOnce is the refill wait when the clients
// resubmit before the commit has acknowledged its whole group: each
// resubmission is one batch the next group expects, not two. Two clients'
// batches commit as one group; their acks are unbuffered, so each client's
// resubmission is queued while the commit still holds the other's ack. The
// loop's clock stands still for good, so a group that expects more than
// the two resubmissions never closes, and the test fails on its deadline.
func TestGroupCountsEachResubmissionOnce(t *testing.T) {
	e := newEngine(aspen.NewGraph(testParams()), 0, ApplyRuns[struct{}], Options{})
	stopped := time.Now()
	e.now = func() time.Time { return stopped }
	var acks [2]chan uint64
	for i := range acks {
		acks[i] = make(chan uint64)
		e.queue <- pending[aspen.Edge]{edges: dummyBatch(1, 10*uint32(i)), enq: time.Now(), done: acks[i]}
	}
	e.start() // both batches are queued, so the first group takes both
	defer e.Close()
	var last Pending
	for i, ack := range acks {
		<-ack
		p, err := e.Insert(dummyBatch(1, 10*uint32(i)+100))
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	select {
	case <-last.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the resubmitted pair never committed: its group expected more batches than were resubmitted")
	}
	if st := e.Stats(); st.Commits != 2 || st.Batches != 4 {
		t.Fatalf("%d batches in %d commits, want 4 in 2", st.Batches, st.Commits)
	}
}

// TestEngineCoalesceEdgeCap checks that MaxCoalesceEdges is a hard bound
// per commit group: a batch that would push the group over the budget is
// carried into the next group instead (and still commits).
func TestEngineCoalesceEdgeCap(t *testing.T) {
	gate := make(chan struct{})
	var gated sync.Once
	var groups []int // edges per insert run; loop-goroutine only, read after Close
	e := New(aspen.NewGraph(testParams()),
		func(g aspen.Graph, runs []CommitRun[aspen.Edge]) aspen.Graph {
			gated.Do(func() { <-gate })
			for _, r := range runs {
				if !r.Del {
					groups = append(groups, len(r.Edges))
				}
			}
			return ApplyRuns(g, runs)
		},
		Options{QueueCap: 64, MaxCoalesce: 16, MaxCoalesceEdges: 250})
	const batches = 10
	const per = 100
	var last Pending
	for i := 0; i < batches; i++ {
		batch := make([]aspen.Edge, per)
		for j := range batch {
			u := uint32(2 * (i*per + j))
			batch[j] = aspen.Edge{Src: u, Dst: u + 1}
		}
		p, err := e.Insert(batch)
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	close(gate)
	last.Wait()
	e.Close()
	total := 0
	for _, g := range groups {
		if g > 250 {
			t.Fatalf("commit group folded %d edges, cap 250", g)
		}
		total += g
	}
	if total != batches*per {
		t.Fatalf("committed %d edges, want %d (carried batch lost?)", total, batches*per)
	}
}

func TestEngineFlushAndClose(t *testing.T) {
	e := NewGraphEngine(aspen.NewGraph(testParams()), Options{})
	for i := 0; i < 10; i++ {
		u := uint32(2 * i)
		if _, err := e.Insert([]aspen.Edge{{Src: u, Dst: u + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	stamp, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if stamp == 0 {
		t.Fatal("flush returned the initial stamp")
	}
	tx := e.Begin()
	if got := tx.Graph().NumEdges(); got != 10 {
		t.Fatalf("NumEdges = %d after flush, want 10", got)
	}
	tx.Close()
	e.Close()
	if _, err := e.Insert([]aspen.Edge{{Src: 100, Dst: 101}}); err != ErrClosed {
		t.Fatalf("Insert after Close: err = %v, want ErrClosed", err)
	}
	if _, err := e.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: err = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestWeightedEngineKernels runs the weighted engine with SSSP — the
// generic-over-WeightedGraph half of the serving layer.
func TestWeightedEngineKernels(t *testing.T) {
	e := NewGraphEngine(aspen.NewWeightedGraph(), Options{})
	defer e.Close()
	edges := []aspen.WeightedEdge{
		{Src: 0, Dst: 1, Val: 1},
		{Src: 1, Dst: 2, Val: 2},
		{Src: 0, Dst: 2, Val: 5},
	}
	p, err := e.Insert(aspen.MakeUndirectedWeighted(edges))
	if err != nil {
		t.Fatal(err)
	}
	p.Wait()
	tx := e.Begin()
	defer tx.Close()
	dist := algos.SSSP(tx.Graph(), 0)
	if dist[2] != 3 {
		t.Fatalf("SSSP dist[2] = %v, want 3 (via vertex 1)", dist[2])
	}
}

// TestSubmitCloseRace checks that concurrent Submit and Close never panic
// and every accepted batch is committed.
func TestSubmitCloseRace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		e := NewGraphEngine(aspen.NewGraph(testParams()), Options{QueueCap: 4})
		var wg sync.WaitGroup
		var accepted sync.Map
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					u := uint32(w*1_000_000 + 2*i)
					p, err := e.Insert([]aspen.Edge{{Src: u, Dst: u + 1}})
					if err != nil {
						return
					}
					accepted.Store(u, p)
				}
			}(w)
		}
		time.Sleep(time.Duration(trial%5) * 100 * time.Microsecond)
		e.Close()
		wg.Wait()
		// Every accepted Pending must resolve (Close drains the queue).
		accepted.Range(func(_, v any) bool {
			v.(Pending).Wait()
			return true
		})
		tx := e.Begin()
		edges := tx.Graph().NumEdges()
		var want uint64
		accepted.Range(func(_, _ any) bool { want++; return true })
		if edges != want {
			t.Fatalf("trial %d: %d edges committed, %d accepted", trial, edges, want)
		}
		tx.Close()
	}
}

// TestCommitAllocatesOnlyTheUpdate pins the commit loop's own allocation
// count: with the functional update stubbed out, a submitted single-run
// batch costs its ack channel and the published version record — the run
// list handed to the update, the WAL and the OnCommit hook is ingest
// scratch, not a per-commit slice.
func TestCommitAllocatesOnlyTheUpdate(t *testing.T) {
	same := func(g aspen.Graph, _ []CommitRun[aspen.Edge]) aspen.Graph { return g }
	e := New(aspen.NewGraph(testParams()), same, Options{})
	defer e.Close()
	runs := 0
	e.OnCommit(func(_, _ aspen.Graph, _ uint64, rs []CommitRun[aspen.Edge]) { runs += len(rs) })
	batch := []aspen.Edge{{Src: 1, Dst: 2}}
	n := testing.AllocsPerRun(200, func() {
		p, err := e.Insert(batch)
		if err != nil {
			t.Fatal(err)
		}
		p.Wait()
	})
	if n > 2 {
		t.Errorf("single-run commit allocated %.1f/op, want <= 2 (ack channel + version)", n)
	}
	if runs == 0 {
		t.Error("OnCommit hook saw no runs")
	}
}
