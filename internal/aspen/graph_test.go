package aspen

import (
	"testing"
	"testing/quick"

	"repro/internal/ctree"
	"repro/internal/xhash"
)

func params() ctree.Params { return ctree.Params{B: 8, Codec: 0} }

// refGraph is a reference adjacency-map implementation for model checking.
type refGraph map[uint32]map[uint32]bool

func (r refGraph) insert(edges []Edge) {
	for _, e := range edges {
		if r[e.Src] == nil {
			r[e.Src] = map[uint32]bool{}
		}
		r[e.Src][e.Dst] = true
		if r[e.Dst] == nil {
			r[e.Dst] = map[uint32]bool{}
		}
	}
}

func (r refGraph) delete(edges []Edge) {
	for _, e := range edges {
		if r[e.Src] != nil {
			delete(r[e.Src], e.Dst)
		}
	}
}

func (r refGraph) numEdges() uint64 {
	var m uint64
	for _, nbrs := range r {
		m += uint64(len(nbrs))
	}
	return m
}

func checkAgainstRef(t *testing.T, g Graph, ref refGraph) {
	t.Helper()
	if g.NumVertices() != len(ref) {
		t.Fatalf("NumVertices = %d, want %d", g.NumVertices(), len(ref))
	}
	if g.NumEdges() != ref.numEdges() {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), ref.numEdges())
	}
	for u, nbrs := range ref {
		if g.Degree(u) != len(nbrs) {
			t.Fatalf("Degree(%d) = %d, want %d", u, g.Degree(u), len(nbrs))
		}
		for v := range nbrs {
			if !g.HasEdge(u, v) {
				t.Fatalf("missing edge (%d,%d)", u, v)
			}
		}
		et, _ := g.EdgeTree(u)
		if err := et.CheckInvariants(); err != nil {
			t.Fatalf("edge tree of %d: %v", u, err)
		}
		et.ForEach(func(v uint32) bool {
			if !nbrs[v] {
				t.Fatalf("spurious edge (%d,%d)", u, v)
			}
			return true
		})
	}
}

func randomEdges(r *xhash.RNG, k, n int) []Edge {
	edges := make([]Edge, k)
	for i := range edges {
		edges[i] = Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
	}
	return edges
}

func TestInsertDeleteModel(t *testing.T) {
	r := xhash.NewRNG(1)
	g := NewGraph(params())
	ref := refGraph{}
	for round := 0; round < 20; round++ {
		ins := randomEdges(r, 200, 50)
		g = g.InsertEdges(ins)
		ref.insert(ins)
		del := randomEdges(r, 80, 50)
		g = g.DeleteEdges(del)
		ref.delete(del)
	}
	checkAgainstRef(t, g, ref)
}

func TestInsertEdgesDedupes(t *testing.T) {
	g := NewGraph(params())
	g = g.InsertEdges([]Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 2}})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d, want 2 (src and dst)", g.NumVertices())
	}
}

func TestDeleteAbsentEdges(t *testing.T) {
	g := NewGraph(params()).InsertEdges([]Edge{{Src: 1, Dst: 2}})
	g2 := g.DeleteEdges([]Edge{{Src: 3, Dst: 4}, {Src: 1, Dst: 9}})
	if g2.NumEdges() != 1 || !g2.HasEdge(1, 2) {
		t.Fatal("deleting absent edges changed the graph")
	}
}

func TestFromAdjacency(t *testing.T) {
	adj := [][]uint32{{1, 2}, {0, 2}, {0, 1}, {}}
	g := FromAdjacency(params(), adj)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.Degree(3) != 0 {
		t.Fatal("isolated vertex should have degree 0")
	}
	if g.Order() != 4 {
		t.Fatalf("Order = %d", g.Order())
	}
}

func TestVertexOperations(t *testing.T) {
	g := NewGraph(params())
	g = g.InsertVertices([]uint32{5, 1, 9, 5})
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	g = g.InsertEdges(MakeUndirected([]Edge{{Src: 1, Dst: 5}, {Src: 5, Dst: 9}}))
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	// Deleting vertex 5 must delete edges into it as well.
	g2 := g.DeleteVertices([]uint32{5})
	if g2.HasVertex(5) {
		t.Fatal("vertex 5 survived")
	}
	if g2.NumEdges() != 0 {
		t.Fatalf("NumEdges after vertex delete = %d, want 0", g2.NumEdges())
	}
	if !g2.HasVertex(1) || !g2.HasVertex(9) {
		t.Fatal("unrelated vertices removed")
	}
	// Original snapshot untouched.
	if g.NumEdges() != 4 || !g.HasVertex(5) {
		t.Fatal("functional update mutated the original")
	}
}

func TestInsertVerticesKeepsEdges(t *testing.T) {
	g := NewGraph(params()).InsertEdges([]Edge{{Src: 1, Dst: 2}})
	g2 := g.InsertVertices([]uint32{1})
	if !g2.HasEdge(1, 2) {
		t.Fatal("re-inserting an existing vertex dropped its edges")
	}
}

func TestBatchUpdateProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xhash.NewRNG(seed)
		g := NewGraph(params())
		ref := refGraph{}
		for round := 0; round < 5; round++ {
			ins := randomEdges(r, 60, 30)
			g = g.InsertEdges(ins)
			ref.insert(ins)
			del := randomEdges(r, 30, 30)
			g = g.DeleteEdges(del)
			ref.delete(del)
		}
		if g.NumEdges() != ref.numEdges() {
			return false
		}
		for u, nbrs := range ref {
			for v := range nbrs {
				if !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotPersistence(t *testing.T) {
	g := NewGraph(params())
	var versions []Graph
	var sizes []uint64
	r := xhash.NewRNG(4)
	for i := 0; i < 15; i++ {
		versions = append(versions, g)
		sizes = append(sizes, g.NumEdges())
		g = g.InsertEdges(randomEdges(r, 100, 40))
	}
	for i := range versions {
		if versions[i].NumEdges() != sizes[i] {
			t.Fatalf("version %d changed size: %d != %d", i, versions[i].NumEdges(), sizes[i])
		}
	}
}

func TestFlatSnapshotMatchesGraph(t *testing.T) {
	r := xhash.NewRNG(5)
	g := NewGraph(params()).InsertEdges(randomEdges(r, 3000, 500))
	fs := BuildFlatSnapshot(g)
	if fs.Order() != g.Order() || fs.NumEdges() != g.NumEdges() {
		t.Fatal("flat snapshot header mismatch")
	}
	for u := uint32(0); int(u) < g.Order(); u++ {
		if fs.Degree(u) != g.Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
		if fs.HasVertex(u) != g.HasVertex(u) {
			t.Fatalf("presence mismatch at %d", u)
		}
		var a, b []uint32
		g.ForEachNeighbor(u, func(v uint32) bool { a = append(a, v); return true })
		fs.ForEachNeighbor(u, func(v uint32) bool { b = append(b, v); return true })
		if len(a) != len(b) {
			t.Fatalf("neighbor count mismatch at %d", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("neighbor mismatch at %d", u)
			}
		}
	}
	if fs.MemoryBytes() == 0 {
		t.Fatal("flat snapshot memory should be positive")
	}
}

func TestStats(t *testing.T) {
	r := xhash.NewRNG(6)
	g := NewGraph(ctree.DefaultParams()).InsertEdges(randomEdges(r, 5000, 300))
	s := g.Stats()
	if s.VertexNodes != g.NumVertices() {
		t.Fatalf("VertexNodes = %d, want %d", s.VertexNodes, g.NumVertices())
	}
	if s.Edge.Elements != g.NumEdges() {
		t.Fatalf("edge elements = %d, want %d", s.Edge.Elements, g.NumEdges())
	}
}

func TestMakeUndirected(t *testing.T) {
	u := MakeUndirected([]Edge{{Src: 1, Dst: 2}})
	if len(u) != 2 || u[0] != (Edge{Src: 1, Dst: 2}) || u[1] != (Edge{Src: 2, Dst: 1}) {
		t.Fatalf("MakeUndirected = %v", u)
	}
}

func TestForEachNeighborParMatchesSequential(t *testing.T) {
	r := xhash.NewRNG(21)
	g := NewGraph(ctree.DefaultParams()).InsertEdges(randomEdges(r, 20_000, 40))
	fs := BuildFlatSnapshot(g)
	for u := uint32(0); int(u) < g.Order(); u += 7 {
		want := map[uint32]bool{}
		g.ForEachNeighbor(u, func(v uint32) bool { want[v] = true; return true })
		for _, view := range []interface {
			ForEachNeighborPar(uint32, func(uint32))
		}{g, fs} {
			got := make(chan uint32, 256)
			go func() {
				view.ForEachNeighborPar(u, func(v uint32) { got <- v })
				close(got)
			}()
			seen := map[uint32]bool{}
			for v := range got {
				if seen[v] {
					t.Fatalf("vertex %d: neighbor %d delivered twice", u, v)
				}
				seen[v] = true
			}
			if len(seen) != len(want) {
				t.Fatalf("vertex %d: %d neighbors, want %d", u, len(seen), len(want))
			}
		}
	}
}
