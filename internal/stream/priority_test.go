package stream

import (
	"sync"
	"testing"
	"time"

	"repro/internal/aspen"
)

// slowEngine builds an engine whose insert path sleeps per batch (a stand-in
// for an expensive tree pass) and blocks its very first apply on gate, so a
// test can deterministically fill the queue while "a commit is in flight".
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

// TestPriorityDisabledKeepsFIFO: small batches queued behind big ones take
// the one FIFO lane, so strict submission order is preserved.
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
