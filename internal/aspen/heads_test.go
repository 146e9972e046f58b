package aspen

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ctree"
	"repro/internal/encoding"
)

// upTo lists what each(u, f) passes a callback that stops after stop
// neighbors (0: never stops).
func upTo(each func(uint32, func(uint32) bool), u uint32, stop int) []uint32 {
	var out []uint32
	each(u, func(v uint32) bool {
		out = append(out, v)
		return len(out) != stop
	})
	return out
}

// checkFlatNeighbors requires the flat view of g, built and patched from
// prev's view, to give every id's neighbors as the edge tree's ForEach does,
// with callbacks that stop after 1, 2 and 3 neighbors and one that never
// stops.
func checkFlatNeighbors[V ctree.Value](t *testing.T, what string, prev, g GraphOf[V]) {
	t.Helper()
	tree := func(u uint32, f func(uint32) bool) {
		if et, ok := g.EdgeTree(u); ok {
			et.ForEach(f)
		}
	}
	for _, fv := range []*FlatView[V]{BuildFlatSnapshot(g), PatchFlatSnapshot(BuildFlatSnapshot(prev), g)} {
		for u := uint32(0); u < uint32(g.Order())+2; u++ {
			for _, stop := range []int{1, 2, 3, 0} {
				if got, want := upTo(fv.ForEachNeighbor, u, stop), upTo(tree, u, stop); !slices.Equal(got, want) {
					t.Fatalf("%s: vertex %d (degree %d), stop after %d: flat %v, tree %v", what, u, g.Degree(u), stop, got, want)
				}
			}
		}
	}
}

// TestPageHeads: every path that publishes a page keeps each slot's heads
// equal to its edge tree's first two ids (checkIndex) and the flat view's
// neighbors equal to the tree's — inserting below the first neighbor and
// between the two heads, deleting the first and the second neighbor,
// shrinking to one neighbor and to none, emptying a vertex and re-creating
// it, a mixed ApplyRuns commit, DeleteVertices, a snapshot load,
// CollectIsolated and growth past one chunk — for three payload types, and
// FromAdjacency for the id-only graph.
func TestPageHeads(t *testing.T) {
	t.Run("struct{}", func(t *testing.T) { checkPageHeads[struct{}](t) })
	t.Run("float32", func(t *testing.T) { checkPageHeads[float32](t) })
	t.Run("uint64", func(t *testing.T) { checkPageHeads[uint64](t) })
	t.Run("FromAdjacency", func(t *testing.T) {
		adj := make([][]uint32, 40)
		for u := range adj {
			for k := range []int{0, 1, 2, 3, 300}[u%5] {
				adj[u] = append(adj[u], uint32((u*7+k*13)%400))
			}
		}
		for _, p := range []ctree.Params{params(), ctree.PlainParams()} {
			g := FromAdjacency(p, adj)
			checkGraphIndex(t, "FromAdjacency", g)
			checkFlatNeighbors(t, "FromAdjacency", Graph{}, g)
		}
	})
}

func checkPageHeads[V ctree.Value](t *testing.T) {
	p := params()
	es := func(pairs ...uint32) []EdgeOf[V] {
		out := make([]EdgeOf[V], 0, len(pairs)/2)
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, EdgeOf[V]{Src: pairs[i], Dst: pairs[i+1]})
		}
		return out
	}
	var wide []uint32
	for v := uint32(0); v < 300; v++ {
		wide = append(wide, 5, 1000+3*v)
	}
	steps := []struct {
		name string
		f    func(GraphOf[V]) GraphOf[V]
	}{
		{"insert", func(g GraphOf[V]) GraphOf[V] { return g.InsertEdges(es(5, 40, 5, 50, 5, 60, 5, 70, 21, 3)) }},
		{"insert below the first neighbor", func(g GraphOf[V]) GraphOf[V] { return g.InsertEdges(es(5, 30)) }},
		{"insert between the heads", func(g GraphOf[V]) GraphOf[V] { return g.InsertEdges(es(5, 35)) }},
		{"delete the first neighbor", func(g GraphOf[V]) GraphOf[V] { return g.DeleteEdges(es(5, 30)) }},
		{"delete the second neighbor", func(g GraphOf[V]) GraphOf[V] { return g.DeleteEdges(es(5, 40)) }},
		{"down to one neighbor", func(g GraphOf[V]) GraphOf[V] { return g.DeleteEdges(es(5, 50, 5, 60, 5, 70)) }},
		{"down to none, kept", func(g GraphOf[V]) GraphOf[V] { return g.DeleteEdges(es(5, 35)) }},
		{"refill", func(g GraphOf[V]) GraphOf[V] { return g.InsertEdges(es(5, 9, 5, 2)) }},
		{"empty the vertex", func(g GraphOf[V]) GraphOf[V] { return g.DeleteEdgesGC(es(5, 9, 5, 2)) }},
		{"re-create it", func(g GraphOf[V]) GraphOf[V] { return g.InsertEdges(es(5, 90, 5, 8)) }},
		{"mixed commit", func(g GraphOf[V]) GraphOf[V] {
			return g.ApplyRuns([]Run[V]{
				{Edges: es(5, 1, 5, 200, 21, 1)},
				{Del: true, Edges: es(5, 1, 5, 8, 21, 3)},
				{Edges: es(35, 5, 5, 4)},
			})
		}},
		{"delete a vertex", func(g GraphOf[V]) GraphOf[V] { return g.DeleteVertices([]uint32{4}) }},
		{"grow past a chunk", func(g GraphOf[V]) GraphOf[V] { return g.InsertEdges(es(wide...)) }},
		{"snapshot load", func(g GraphOf[V]) GraphOf[V] {
			back, err := FromSnapshot[V](p, g.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return back
		}},
		{"collect isolated", func(g GraphOf[V]) GraphOf[V] { return g.DeleteEdges(es(21, 1)).CollectIsolated() }},
	}
	g := NewGraphOf[V](p)
	for _, s := range steps {
		prev := g
		g = s.f(g)
		checkGraphIndex(t, s.name, g)
		checkFlatNeighbors(t, s.name, prev, g)
	}
	if g.Degree(5) != 302 || g.HasVertex(21) || g.HasVertex(4) {
		t.Fatalf("final graph: degree(5) = %d, vertex 21 %v, vertex 4 %v", g.Degree(5), g.HasVertex(21), g.HasVertex(4))
	}
}

// TestFlatNeighborsMatchTree: flat ForEachNeighbor equals the edge tree's
// ForEach at degrees 0, 1, 2, 3, 300 and 1 000, with callbacks that stop
// after 1, 2 and 3 neighbors, under every chunk configuration — including
// the plain tree, whose first two ids are both head-tree keys — and with
// payload bytes interleaved in the chunks.
func TestFlatNeighborsMatchTree(t *testing.T) {
	for _, p := range []ctree.Params{params(), ctree.DefaultParams(), {B: 8, Codec: encoding.Raw}, ctree.PlainParams()} {
		name := fmt.Sprintf("B=%d/%s/plain=%v", p.B, p.Codec, p.Plain)
		t.Run(name, func(t *testing.T) {
			checkDegreeLadder[struct{}](t, p)
			checkDegreeLadder[float32](t, p)
		})
	}
}

func checkDegreeLadder[V ctree.Value](t *testing.T, p ctree.Params) {
	var edges []EdgeOf[V]
	for u, d := range []int{0, 1, 2, 3, 300, 1000} {
		for k := range d {
			edges = append(edges, EdgeOf[V]{Src: uint32(u), Dst: uint32(k*5 + u)})
		}
	}
	g := NewGraphOf[V](p).InsertVertices([]uint32{0}).InsertEdges(edges)
	checkGraphIndex(t, "ladder", g)
	checkFlatNeighbors(t, "ladder", GraphOf[V]{}, g)
}

// TestFlatNeighborsAllocateNothing: reading a vertex through the flat view
// allocates nothing — from the page's heads alone (degree 1 and 2), past
// them into the edge tree (degree 300, and a callback that stops at the
// third neighbor), and in Warm.
func TestFlatNeighborsAllocateNothing(t *testing.T) {
	var edges []WeightedEdge
	for u, d := range []int{1, 2, 300} {
		for k := range d {
			edges = append(edges, WeightedEdge{Val: 1, Src: uint32(u), Dst: uint32(k + 7)})
		}
	}
	for _, fv := range []interface {
		ForEachNeighbor(uint32, func(uint32) bool)
		Warm([]uint32) uint32
	}{
		BuildFlatSnapshot(NewGraph(params()).InsertEdges(stripPayloads(edges))),
		BuildFlatWeightedSnapshot(NewWeightedGraph().InsertEdges(edges)),
	} {
		n := 0
		all := func(uint32) bool { n++; return true }
		three := func(uint32) bool { n++; return n%3 != 0 }
		ids := []uint32{0, 1, 2, 3, 5000}
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"degree 1", func() { fv.ForEachNeighbor(0, all) }},
			{"degree 2", func() { fv.ForEachNeighbor(1, all) }},
			{"degree 300", func() { fv.ForEachNeighbor(2, all) }},
			{"stop at the third", func() { n = 0; fv.ForEachNeighbor(2, three) }},
			{"Warm", func() { fv.Warm(ids) }},
		} {
			if a := testing.AllocsPerRun(100, c.f); a != 0 {
				t.Errorf("%T %s: %.1f allocs per call, want 0", fv, c.name, a)
			}
		}
	}
}

// stripPayloads returns the id-only edges of es.
func stripPayloads(es []WeightedEdge) []Edge {
	out := make([]Edge, len(es))
	for i, e := range es {
		out[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	return out
}
