package ligra

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// weightedStub gives every edge of a flatStub the weight u + v (symmetric,
// as the mappers assume), so the weighted mapper can be driven over the same
// shapes and checked to hand F the right weight in both directions.
type weightedStub struct{ *flatStub }

func (w weightedStub) ForEachNeighborW(u uint32, f func(v uint32, wt float32) bool) {
	w.ForEachNeighbor(u, func(v uint32) bool { return f(v, float32(u+v)) })
}

// seqLevels is a sequential BFS: the hop distance of every vertex from src.
func seqLevels(g Graph, src uint32) []int32 {
	level := make([]int32, g.Order())
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	for queue := []uint32{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		g.ForEachNeighbor(u, func(v uint32) bool {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
			return true
		})
	}
	return level
}

// TestTraversalManyWorkers drives a CAS-claiming traversal — sparse rounds,
// dense rounds and both conversions between them — through EdgeMap and
// WeightedEdgeMap with far more workers than cores, over a flat and a plain
// graph. Every round's output must be exactly the next BFS level, whatever
// the blocks did concurrently; under -race this is the mappers' data-race
// check.
func TestTraversalManyWorkers(t *testing.T) {
	old := parallel.Procs
	parallel.Procs = 16
	defer func() { parallel.Procs = old }()
	s := newFlatStub(ringAdj(1<<13, 8))
	want := seqLevels(s, 3)
	run := func(name string, edgeMap func(u VertexSubset, claim func(src, dst uint32) bool, open func(v uint32) bool) VertexSubset) {
		level := make([]int32, s.Order())
		for i := range level {
			level[i] = -1
		}
		level[3] = 0
		frontier := FromVertex(s.Order(), 3)
		for round := int32(1); !frontier.IsEmpty(); round++ {
			frontier = edgeMap(frontier,
				func(src, dst uint32) bool { return atomic.CompareAndSwapInt32(&level[dst], -1, round) },
				func(v uint32) bool { return atomic.LoadInt32(&level[v]) == -1 })
			n := 0
			for v, l := range want {
				if l == round {
					n++
					if !frontier.Contains(uint32(v)) {
						t.Fatalf("%s: round %d misses vertex %d", name, round, v)
					}
				}
			}
			if frontier.Size() != n {
				t.Fatalf("%s: round %d returns %d vertices, want %d", name, round, frontier.Size(), n)
			}
		}
		if !slices.Equal(level, want) {
			t.Fatalf("%s: levels differ from the sequential BFS", name)
		}
	}
	for _, opts := range []EdgeMapOpts{{}, {NoDense: true}, {DenseThresholdDiv: 1 << 20}} {
		for name, g := range map[string]Graph{"flat": s, "plain": baseOnly{s}} {
			run(name, func(u VertexSubset, claim func(src, dst uint32) bool, open func(v uint32) bool) VertexSubset {
				return EdgeMap(g, u, claim, open, opts)
			})
		}
		run("weighted", func(u VertexSubset, claim func(src, dst uint32) bool, open func(v uint32) bool) VertexSubset {
			return WeightedEdgeMap(weightedStub{s}, u,
				func(src, dst uint32, w float32) bool { return w == float32(src+dst) && claim(src, dst) }, open, opts)
		})
	}
}
