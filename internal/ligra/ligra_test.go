package ligra

import (
	"sync/atomic"
	"testing"
)

// sliceGraph is a trivial adjacency-slice graph for unit-testing the
// primitives without pulling in an engine.
type sliceGraph [][]uint32

func (g sliceGraph) Order() int { return len(g) }

func (g sliceGraph) NumEdges() uint64 {
	var m uint64
	for _, nbrs := range g {
		m += uint64(len(nbrs))
	}
	return m
}

func (g sliceGraph) Degree(u uint32) int { return len(g[u]) }

func (g sliceGraph) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	for _, v := range g[u] {
		if !f(v) {
			return
		}
	}
}

// path5 is 0-1-2-3-4.
var path5 = sliceGraph{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}

func TestVertexSubsetConversions(t *testing.T) {
	s := FromSparse(10, []uint32{2, 5, 7})
	if s.Size() != 3 || s.IsDense() || s.Universe() != 10 {
		t.Fatal("sparse subset misconfigured")
	}
	d := s.ToDense()
	if !d.IsDense() || d.Size() != 3 {
		t.Fatal("dense conversion broken")
	}
	for v := uint32(0); v < 10; v++ {
		want := v == 2 || v == 5 || v == 7
		if d.Contains(v) != want || s.Contains(v) != want {
			t.Fatalf("membership of %d wrong", v)
		}
	}
	back := d.ToSparse()
	if back.Size() != 3 {
		t.Fatal("round trip lost members")
	}
	ids := back.Sparse()
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 5 || ids[2] != 7 {
		t.Fatalf("sparse ids = %v", ids)
	}
}

func TestEmptySubset(t *testing.T) {
	e := Empty(5)
	if !e.IsEmpty() || e.Size() != 0 {
		t.Fatal("Empty not empty")
	}
	out := EdgeMap(path5, e, func(u, v uint32) bool { return true },
		func(v uint32) bool { return true }, EdgeMapOpts{})
	if !out.IsEmpty() {
		t.Fatal("EdgeMap over empty subset must be empty")
	}
}

func TestVertexMapAndFilter(t *testing.T) {
	s := FromSparse(10, []uint32{1, 2, 3, 4})
	var sum atomic.Int64
	VertexMap(s, func(v uint32) { sum.Add(int64(v)) })
	if sum.Load() != 10 {
		t.Fatalf("VertexMap sum = %d", sum.Load())
	}
	f := VertexFilter(s, func(v uint32) bool { return v%2 == 0 })
	if f.Size() != 2 {
		t.Fatalf("filter size = %d", f.Size())
	}
}

func edgeMapOnce(t *testing.T, opts EdgeMapOpts) {
	t.Helper()
	// One BFS step from vertex 2 of the path: targets 1 and 3.
	visited := make([]int32, 5)
	visited[2] = 1
	claim := func(u, v uint32) bool {
		return atomic.CompareAndSwapInt32(&visited[v], 0, 1)
	}
	cond := func(v uint32) bool { return atomic.LoadInt32(&visited[v]) == 0 }
	out := EdgeMap(path5, FromVertex(5, 2), claim, cond, opts)
	if out.Size() != 2 {
		t.Fatalf("frontier size = %d, want 2", out.Size())
	}
	if !out.ToDense().Contains(1) || !out.ToDense().Contains(3) {
		t.Fatal("wrong frontier members")
	}
}

func TestEdgeMapSparse(t *testing.T) { edgeMapOnce(t, EdgeMapOpts{NoDense: true}) }

func TestEdgeMapDense(t *testing.T) {
	// Forcing the dense path: threshold divisor 1 makes everything dense.
	edgeMapOnce(t, EdgeMapOpts{DenseThresholdDiv: 1})
}

func TestEdgeMapDenseMatchesSparse(t *testing.T) {
	// A small complete graph: both modes must produce identical frontiers.
	const n = 16
	g := make(sliceGraph, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				g[u] = append(g[u], uint32(v))
			}
		}
	}
	run := func(opts EdgeMapOpts) []int32 {
		visited := make([]int32, n)
		visited[0] = 1
		frontier := FromVertex(n, 0)
		for !frontier.IsEmpty() {
			frontier = EdgeMap(g, frontier,
				func(u, v uint32) bool { return atomic.CompareAndSwapInt32(&visited[v], 0, 1) },
				func(v uint32) bool { return atomic.LoadInt32(&visited[v]) == 0 },
				opts)
		}
		return visited
	}
	a := run(EdgeMapOpts{NoDense: true})
	b := run(EdgeMapOpts{DenseThresholdDiv: 1})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visited mismatch at %d", i)
		}
	}
}

func TestForEachSubset(t *testing.T) {
	s := FromSparse(6, []uint32{5, 1})
	var got []uint32
	s.ForEach(func(v uint32) { got = append(got, v) })
	if len(got) != 2 {
		t.Fatalf("ForEach visited %d", len(got))
	}
	d := s.ToDense()
	got = nil
	d.ForEach(func(v uint32) { got = append(got, v) })
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("dense ForEach = %v", got)
	}
}
