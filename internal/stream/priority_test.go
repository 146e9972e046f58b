package stream

import (
	"sync"
	"testing"
	"time"

	"repro/internal/aspen"
)

// slowEngine builds an engine whose insert path sleeps per batch (a stand-in
// for an expensive tree pass) and blocks its very first apply on gate, so a
// test can deterministically fill both lanes while "a commit is in flight".
func slowEngine(gate chan struct{}, perBatch time.Duration, opts Options) *Engine[aspen.Graph, aspen.Edge] {
	var gated sync.Once
	return New(aspen.NewGraph(testParams()),
		func(g aspen.Graph, runs []CommitRun[aspen.Edge]) aspen.Graph {
			gated.Do(func() { <-gate })
			for _, r := range runs {
				if !r.Del {
					time.Sleep(perBatch)
				}
			}
			return ApplyRuns(g, runs)
		},
		opts)
}

func dummyBatch(n int, base uint32) []aspen.Edge {
	out := make([]aspen.Edge, n)
	for i := range out {
		out[i] = aspen.Edge{Src: base + uint32(i), Dst: base + uint32(i) + 1}
	}
	return out
}

// TestPriorityLaneBoundsSmallBatchLatency is the priority lane's contract: a
// small batch submitted behind a backlog of giant batches commits after at
// most the commit in flight plus its own, not after the whole backlog —
// bounding small-batch tail latency under saturation.
func TestPriorityLaneBoundsSmallBatchLatency(t *testing.T) {
	const (
		larges    = 8
		largeSize = 1_000
		perBatch  = 10 * time.Millisecond
	)
	gate := make(chan struct{})
	e := slowEngine(gate, perBatch, Options{
		QueueCap: 64, MaxCoalesce: 1, PriorityEdges: 10,
	})
	defer e.Close()

	// The loop takes large #0 immediately and blocks inside its commit on
	// the gate; everything submitted next piles up behind it. MaxCoalesce=1
	// forces one batch per commit so stamps count commit order exactly.
	largeP := make([]Pending, larges)
	var err error
	if largeP[0], err = e.Insert(dummyBatch(largeSize, 0)); err != nil {
		t.Fatal(err)
	}
	// Wait until the loop owns batch #0 (queue drained) so stamp order is
	// deterministic: everything below queues behind the in-flight commit.
	for len(e.queue) > 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < larges; i++ {
		if largeP[i], err = e.Insert(dummyBatch(largeSize, uint32(i*10_000))); err != nil {
			t.Fatal(err)
		}
	}
	smallStart := time.Now()
	smallP, err := e.Insert(dummyBatch(1, 900_000))
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	smallStamp := smallP.Wait()
	smallLat := time.Since(smallStart)
	largeStamps := make([]uint64, larges)
	for i, p := range largeP {
		largeStamps[i] = p.Wait()
	}
	lastLargeLat := time.Since(smallStart)

	// The biased select must commit the small batch immediately after the
	// in-flight large #0: stamp 2 of the run, ahead of larges 1..7.
	if smallStamp != largeStamps[0]+1 {
		t.Fatalf("small batch committed at stamp %d, want %d (right after the in-flight commit)",
			smallStamp, largeStamps[0]+1)
	}
	for i := 1; i < larges; i++ {
		if largeStamps[i] <= smallStamp {
			t.Fatalf("large batch %d (stamp %d) committed before the priority batch (stamp %d)",
				i, largeStamps[i], smallStamp)
		}
	}
	// Latency bound: one in-flight commit plus its own, not the backlog.
	if smallLat >= lastLargeLat/2 {
		t.Fatalf("small-batch latency %v not bounded (backlog drained in %v)", smallLat, lastLargeLat)
	}

	// All edges from both lanes must be visible after the drain.
	tx := e.Begin()
	defer tx.Close()
	if !tx.Graph().HasEdge(900_000, 900_001) {
		t.Fatal("priority-lane edge missing")
	}
	if !tx.Graph().HasEdge(10_000, 10_001) {
		t.Fatal("normal-lane edge missing")
	}
}

// TestFlushCoversBothLanes: Flush must not resolve before priority-lane
// batches submitted ahead of it are committed.
func TestFlushCoversBothLanes(t *testing.T) {
	gate := make(chan struct{})
	e := slowEngine(gate, 0, Options{QueueCap: 64, PriorityEdges: 10})
	defer e.Close()

	if _, err := e.Insert(dummyBatch(100, 0)); err != nil { // occupies the loop at the gate
		t.Fatal(err)
	}
	for len(e.queue) > 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Insert(dummyBatch(2, 50_000)); err != nil { // priority lane
		t.Fatal(err)
	}
	if _, err := e.Insert(dummyBatch(200, 60_000)); err != nil { // normal lane
		t.Fatal(err)
	}
	close(gate)
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Close()
	if !tx.Graph().HasEdge(50_000, 50_001) || !tx.Graph().HasEdge(60_000, 60_001) {
		t.Fatal("Flush returned before both lanes were committed")
	}
	st := e.Stats()
	if st.Batches != 3 {
		t.Fatalf("batches = %d, want 3 (markers must not count)", st.Batches)
	}
}

// TestPriorityDisabledKeepsFIFO: with PriorityEdges = 0 small batches take
// the normal lane and strict submission order is preserved.
func TestPriorityDisabledKeepsFIFO(t *testing.T) {
	gate := make(chan struct{})
	e := slowEngine(gate, 0, Options{QueueCap: 64, MaxCoalesce: 1})
	defer e.Close()
	var ps []Pending
	if p, err := e.Insert(dummyBatch(100, 0)); err == nil {
		ps = append(ps, p)
	} else {
		t.Fatal(err)
	}
	for len(e.queue) > 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 5; i++ {
		big, err := e.Insert(dummyBatch(100, uint32(i*1_000)))
		if err != nil {
			t.Fatal(err)
		}
		small, err := e.Insert(dummyBatch(1, uint32(i*1_000+500)))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, big, small)
	}
	close(gate)
	var prev uint64
	for i, p := range ps {
		s := p.Wait()
		if s < prev {
			t.Fatalf("batch %d committed at stamp %d before an earlier batch's %d", i, s, prev)
		}
		prev = s
	}
}
