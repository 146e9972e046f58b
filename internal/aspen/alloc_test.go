package aspen

import (
	"testing"

	"repro/internal/ctree"
	"repro/internal/parallel"
)

// TestInsertEdgesSmallBatchAllocBound is the allocation regression test for
// the batch-update hot path. The streaming chunk pipeline plus the fused
// vertex/edge MultiInsert put a 4-edge undirected batch at ~57 allocs/op;
// the bound leaves headroom for scheduler noise while catching any return
// of the old per-run copies and double vertex-tree passes (which cost >100).
func TestInsertEdgesSmallBatchAllocBound(t *testing.T) {
	g := NewGraph(ctree.DefaultParams())
	g = g.InsertEdges([]Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 1}, {Src: 3, Dst: 4}, {Src: 4, Dst: 3}})
	batch := []Edge{{Src: 10, Dst: 20}, {Src: 20, Dst: 10}, {Src: 5, Dst: 7}, {Src: 7, Dst: 5}}
	if n := testing.AllocsPerRun(200, func() { g.InsertEdges(batch) }); n > 80 {
		t.Errorf("small-batch InsertEdges allocated %.1f/op, want <= 80", n)
	}
}

// groupBySourceKV splits the packed sorted batch into per-source runs of
// destination ids and (when vals is non-nil) the aligned payload runs.
// Every run is a subslice of one shared backing array, all (the low words of
// packed, materialized once in parallel) — no per-run copies. It is the
// grouping of the reference cores (batchref_test.go); applyCore lays its
// runs out the same way as it splits each one by kind.
func groupBySourceKV[V ctree.Value](packed []uint64, vals []V) (srcs []uint32, dsts [][]uint32, vruns [][]V, all []uint32) {
	if len(packed) == 0 {
		return nil, nil, nil, nil
	}
	all = make([]uint32, len(packed))
	parallel.For(len(packed), func(i int) { all[i] = uint32(packed[i]) })
	starts := parallel.PackIndices(len(packed), func(i int) bool {
		return i == 0 || packed[i]>>32 != packed[i-1]>>32
	})
	srcs = make([]uint32, len(starts))
	dsts = make([][]uint32, len(starts))
	if vals != nil {
		vruns = make([][]V, len(starts))
	}
	parallel.ForGrain(len(starts), 64, func(j int) {
		lo := int(starts[j])
		hi := len(packed)
		if j+1 < len(starts) {
			hi = int(starts[j+1])
		}
		srcs[j] = uint32(packed[lo] >> 32)
		dsts[j] = all[lo:hi]
		if vals != nil {
			vruns[j] = vals[lo:hi]
		}
	})
	return srcs, dsts, vruns, all
}

// groupBySource is the id-only view of groupBySourceKV.
func groupBySource(packed []uint64) (srcs []uint32, dsts [][]uint32) {
	srcs, dsts, _, _ = groupBySourceKV[struct{}](packed, nil)
	return srcs, dsts
}

// TestGroupBySourceSharesBacking verifies the zero-copy grouping: all runs
// must be subslices of one backing array, contiguous and in order.
func TestGroupBySourceSharesBacking(t *testing.T) {
	packed := []uint64{
		1<<32 | 5, 1<<32 | 9,
		3<<32 | 2,
		7<<32 | 1, 7<<32 | 4, 7<<32 | 8,
	}
	srcs, dsts := groupBySource(packed)
	wantSrcs := []uint32{1, 3, 7}
	wantDsts := [][]uint32{{5, 9}, {2}, {1, 4, 8}}
	if len(srcs) != len(wantSrcs) {
		t.Fatalf("got %d runs, want %d", len(srcs), len(wantSrcs))
	}
	for i := range srcs {
		if srcs[i] != wantSrcs[i] {
			t.Errorf("srcs[%d] = %d, want %d", i, srcs[i], wantSrcs[i])
		}
		if len(dsts[i]) != len(wantDsts[i]) {
			t.Fatalf("dsts[%d] has %d elems, want %d", i, len(dsts[i]), len(wantDsts[i]))
		}
		for j := range dsts[i] {
			if dsts[i][j] != wantDsts[i][j] {
				t.Errorf("dsts[%d][%d] = %d, want %d", i, j, dsts[i][j], wantDsts[i][j])
			}
		}
	}
	// Adjacent runs must be contiguous in one backing array: each run's
	// capacity extends through every later run (a per-run copy would have
	// cap == len).
	for i := 1; i < len(dsts); i++ {
		prev, cur := dsts[i-1], dsts[i]
		if cap(prev) < len(prev)+len(cur) {
			t.Errorf("run %d does not extend into run %d's storage; runs were copied", i-1, i)
		}
		if &prev[:len(prev)+1][len(prev)] != &cur[0] {
			t.Errorf("run %d does not start where run %d ends", i, i-1)
		}
	}
	if srcs2, dsts2 := groupBySource(nil); srcs2 != nil || dsts2 != nil {
		t.Error("groupBySource(nil) should return nil slices")
	}
}

// TestInsertEdgesCreatesDestinationVertices pins the fused missing-vertex
// pass: destination-only endpoints must exist after a single InsertEdges.
func TestInsertEdgesCreatesDestinationVertices(t *testing.T) {
	g := NewGraph(ctree.DefaultParams())
	g = g.InsertEdges([]Edge{{Src: 1, Dst: 100}, {Src: 2, Dst: 100}, {Src: 1, Dst: 200}})
	for _, u := range []uint32{1, 2, 100, 200} {
		if !g.HasVertex(u) {
			t.Errorf("vertex %d missing after InsertEdges", u)
		}
	}
	if g.Degree(100) != 0 {
		t.Errorf("destination-only vertex 100 has degree %d, want 0 (directed)", g.Degree(100))
	}
	if !g.HasEdge(1, 100) || !g.HasEdge(1, 200) || !g.HasEdge(2, 100) {
		t.Error("edges missing after InsertEdges")
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	// A destination that is also a source must keep its edges.
	g2 := g.InsertEdges([]Edge{{Src: 100, Dst: 1}, {Src: 5, Dst: 100}})
	if !g2.HasEdge(100, 1) || !g2.HasEdge(5, 100) || !g2.HasVertex(5) {
		t.Error("mixed source/destination batch mishandled")
	}
}

// TestBatchUpdateAllocsPerEdge pins what the batch-driven vertex-tree
// descent bought: a 1 000-edge symmetrised batch against a populated
// scale-14 graph costs 5.5 (insert) and 5.3 (delete) allocations per
// directed edge; the build-a-tree-then-Union composition it replaced cost
// 16.3 and 10.3 on the same inputs, and BuildLike's head-entry slice,
// allocated before knowing the run held a head, one more until PR 13. The
// count covers the whole call: radix sort, grouping, edge-tree builds and
// unions, and the copied vertex-tree paths.
func TestBatchUpdateAllocsPerEdge(t *testing.T) {
	sample := rmatEdges(14, 150_500, 3)
	edges := make([]Edge, len(sample))
	for i, e := range sample {
		edges[i] = Edge{Src: e[0], Dst: e[1]}
	}
	g := NewGraph(ctree.DefaultParams()).InsertEdges(MakeUndirected(edges[:150_000]))
	batch := MakeUndirected(edges[150_000:])
	after := g.InsertEdges(batch)
	const limit = 7.0
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"InsertEdges", func() { g.InsertEdges(batch) }},
		{"DeleteEdges", func() { after.DeleteEdges(batch) }},
	} {
		n := testing.AllocsPerRun(20, c.f) / float64(len(batch))
		t.Logf("%s: %.2f allocs/edge", c.name, n)
		if n > limit {
			t.Errorf("%s allocated %.1f/edge, want <= %.0f", c.name, n, limit)
		}
	}
}
