package stream

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/rmat"
)

// reached is the set of vertices a BFS reached, as a bitmap over its
// parents array.
func reached(r algos.BFSResult) []bool {
	out := make([]bool, len(r.Parents))
	for v, p := range r.Parents {
		out[v] = p >= 0
	}
	return out
}

// checkKernelsAgainstTree runs BFS and CC on the gated flat view and on the
// pinned tree snapshot it was built from, and fails on any difference.
func checkKernelsAgainstTree(t *testing.T, flat ligra.Graph, tree aspen.Graph, src uint32) {
	t.Helper()
	fb, tb := algos.BFS(flat, src, false), algos.BFS(tree, src, false)
	if fb.Visited != tb.Visited || fb.Rounds != tb.Rounds || !slices.Equal(reached(fb), reached(tb)) {
		t.Fatalf("BFS from %d: flat visited %d in %d rounds, tree %d in %d", src, fb.Visited, fb.Rounds, tb.Visited, tb.Rounds)
	}
	if fc, tc := algos.ConnectedComponents(flat), algos.ConnectedComponents(tree); !slices.Equal(fc, tc) {
		t.Fatal("CC labels of the flat view differ from the tree snapshot's")
	}
}

// TestWriterPriorityUnderBackToBackCommits: a writer keeps the queue full
// while a reader runs BFS and CC on PatchFlat views. Every answer equals the
// one its pinned tree snapshot gives, the engine holds its gate for some
// applies and the alternation rule declines some, and the reader finishes.
func TestWriterPriorityUnderBackToBackCommits(t *testing.T) {
	gen := rmat.NewGenerator(11, 61)
	mk := func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }
	e := NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()).InsertEdges(mk(0, 20_000)),
		Options{PatchFlat: true, QueueCap: 8, MaxCoalesce: 2})
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := 20_000 + i*1_000
			if _, err := e.Insert(mk(lo, lo+1_000)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	queries := 0
	for ; queries < 30 || e.Stats().PriorityDeclined == 0; queries++ {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("after %d queries: %d holds, %d declined", queries, e.Stats().PriorityHolds, e.Stats().PriorityDeclined)
		}
		tx := e.Begin()
		checkKernelsAgainstTree(t, tx.Flat(), tx.Graph(), uint32(queries%64))
		tx.Close()
	}
	close(stop)
	wg.Wait()
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PriorityHolds == 0 || st.PriorityDeclined == 0 {
		t.Fatalf("holds %d, declined %d: want both > 0", st.PriorityHolds, st.PriorityDeclined)
	}
	if st.PriorityHolds+st.PriorityDeclined != st.Commits {
		t.Fatalf("holds %d + declined %d != commits %d", st.PriorityHolds, st.PriorityDeclined, st.Commits)
	}
	t.Logf("%d queries, %d commits: %d held, %d declined, readers parked %v",
		queries, st.Commits, st.PriorityHolds, st.PriorityDeclined, st.ReaderWait)
}

// TestWriterPriorityIngestGoroutineReaders: the prebuilt flat view and an
// OnCommit hook that runs a kernel on Tx.Flat both run on the ingest
// goroutine after the apply released the gate, so neither waits on it.
func TestWriterPriorityIngestGoroutineReaders(t *testing.T) {
	gen := rmat.NewGenerator(9, 67)
	mk := func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }
	e := NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()).InsertEdges(mk(0, 2_000)),
		Options{PatchFlat: true, PrebuildFlat: true})
	hooked := 0
	e.OnCommit(func(_, cur aspen.Graph, _ uint64, _ []CommitRun[aspen.Edge]) {
		tx := e.Begin()
		if r := algos.BFS(tx.Flat(), 0, false); r.Visited != algos.BFS(cur, 0, false).Visited {
			t.Error("hook's flat BFS disagrees with the committed snapshot")
		}
		tx.Close()
		hooked++
	})
	done := make(chan error, 1)
	go func() {
		for i := uint64(0); i < 20; i++ {
			lo := 2_000 + i*200
			if _, err := e.Insert(mk(lo, lo+200)); err != nil {
				done <- err
				return
			}
		}
		_, err := e.Flush()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("ingest stuck: a reader on the ingest goroutine waited on the engine's own gate")
	}
	e.Close()
	st := e.Stats()
	if hooked == 0 || uint64(hooked) != st.Commits || st.PriorityHolds == 0 {
		t.Fatalf("hook ran %d times for %d commits, %d holds", hooked, st.Commits, st.PriorityHolds)
	}
}

// TestWriterPriorityMetrics: the gate's counters reach /metrics as the
// same numbers Stats reports, and only a parked Wait adds reader wait.
func TestWriterPriorityMetrics(t *testing.T) {
	e := NewGraphEngine(aspen.NewGraph(testParams()), Options{})
	defer e.Close()
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	for i := range 5 {
		p, err := e.Insert(mkEdges(uint64(i*10), uint64(i*10+10)))
		if err != nil {
			t.Fatal(err)
		}
		p.Wait()
	}
	tx := e.Begin()
	defer tx.Close()
	fv := tx.Flat().(ligra.Warmer)
	fv.Warm([]uint32{1, 2, 3})
	if st := e.Stats(); st.ReaderWait != 0 {
		t.Fatalf("an open gate's Wait was timed: %v", st.ReaderWait)
	}

	// The engine is idle (every commit acknowledged), so the test may
	// stand in for its writer. The reader may reach Warm only after the
	// release; hold again until one Warm has parked.
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	tries := uint64(0)
	for deadline := time.Now().Add(10 * time.Second); e.Stats().ReaderWait == 0; {
		if time.Now().After(deadline) {
			t.Fatal("a reader never parked on the held gate, or its wait was not counted")
		}
		tries++
		if !e.gate.Hold() {
			time.Sleep(time.Millisecond)
			continue
		}
		done := make(chan struct{})
		go func() { fv.Warm([]uint32{1, 2, 3}); close(done) }()
		time.Sleep(10 * time.Millisecond)
		e.gate.Release()
		<-done
	}

	st := e.Stats()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		fmt.Sprintf("aspen_engine_priority_holds_total %d\n", st.PriorityHolds),
		fmt.Sprintf("aspen_engine_priority_declined_total %d\n", st.PriorityDeclined),
		"# TYPE aspen_engine_reader_wait_seconds_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if st.PriorityHolds+st.PriorityDeclined != st.Commits+tries {
		t.Errorf("holds %d + declined %d, want commits %d + the test's %d tries", st.PriorityHolds, st.PriorityDeclined, st.Commits, tries)
	}
	const sample = "\naspen_engine_reader_wait_seconds_total "
	i := strings.Index(text, sample)
	if i < 0 {
		t.Fatal("no reader wait sample")
	}
	var secs float64
	if _, err := fmt.Sscan(text[i+len(sample):], &secs); err != nil {
		t.Fatal(err)
	}
	if math.Abs(secs-st.ReaderWait.Seconds()) > 1e-6 {
		t.Errorf("reader wait exposed as %v s, Stats says %v", secs, st.ReaderWait)
	}
}

// TestReportCountsOnlyItsRunsPriority: a Workload's report carries the
// writer-priority counts of its own run, not the store's lifetime ones, so
// a query-only run after a writer's run reports no applies, and each run
// with a writer reports holds + declined = its own commits.
func TestReportCountsOnlyItsRunsPriority(t *testing.T) {
	gen := rmat.NewGenerator(10, 71)
	mk := func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }
	e := NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()).InsertEdges(mk(0, 5_000)), Options{PatchFlat: true})
	defer e.Close()
	next := UpdateScheduleMix(5_000, 500, 10, mk)
	run := func(writer bool) Report {
		w := Workload[aspen.Edge]{
			Store:    e.Store(),
			Readers:  1,
			Kernels:  []Kernel{{Name: "bfs", Run: func(g ligra.Graph) { algos.BFS(g, 0, false) }}},
			Duration: 150 * time.Millisecond,
			UseFlat:  true,
		}
		if writer {
			w.NextBatch = next
		}
		rep := w.Run()
		if rep.SubmitErr != "" || rep.QueryErrs != 0 || len(rep.PerShard) != 1 {
			t.Fatalf("submit error %q, %d query errors, %d shards", rep.SubmitErr, rep.QueryErrs, len(rep.PerShard))
		}
		return rep
	}
	for i, writer := range []bool{true, false, true} {
		rep := run(writer)
		es := rep.PerShard[0]
		if writer && (rep.Commits == 0 || es.PriorityHolds+es.PriorityDeclined != rep.Commits) {
			t.Fatalf("run %d: %d held + %d declined, want the run's %d commits", i, es.PriorityHolds, es.PriorityDeclined, rep.Commits)
		}
		if !writer && (es.PriorityHolds != 0 || es.PriorityDeclined != 0 || es.ReaderWait != 0) {
			t.Fatalf("query-only run %d: %d held, %d declined, readers parked %v; want none", i, es.PriorityHolds, es.PriorityDeclined, es.ReaderWait)
		}
	}
}
