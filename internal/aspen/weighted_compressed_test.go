package aspen

import (
	"testing"

	"repro/internal/ctree"
	"repro/internal/xhash"
)

// rmatEdges samples edges from the rMAT distribution (a=0.5, b=c=0.1,
// d=0.3), inlined here because internal/rmat imports this package.
func rmatEdges(scale int, m int, seed uint64) [][2]uint32 {
	r := xhash.NewRNG(seed)
	out := make([][2]uint32, m)
	for i := range out {
		var u, v uint32
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.Intn(100)
			switch {
			case p < 50: // quadrant a
			case p < 60: // b
				v |= 1 << bit
			case p < 70: // c
				u |= 1 << bit
			default: // d
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		out[i] = [2]uint32{u, v}
	}
	return out
}

// Tests of the compressed weighted graph introduced by the generic-payload
// refactor: differential behavior against a plain map reference (the
// semantics of the old plain-tree WeightedGraph), the isolated-vertex GC,
// and the space acceptance criterion (delta-encoded weighted bytes/edge
// must be at most 60% of the plain-tree weighted representation).

func randomWeightedBatch(r *xhash.RNG, n, idSpace int) []WeightedEdge {
	batch := make([]WeightedEdge, n)
	for i := range batch {
		batch[i] = WeightedEdge{
			Src: uint32(r.Intn(idSpace)),
			Dst: uint32(r.Intn(idSpace)),
			Val: float32(r.Intn(10_000)) / 16,
		}
	}
	return batch
}

// TestWeightedCompressedDifferential drives the compressed weighted graph
// and a map model through interleaved insert/delete rounds at several
// compression settings and demands identical observable state — the
// old plain-tree behavior (LWW weight updates, delete ignores weights)
// expressed as a reference model.
func TestWeightedCompressedDifferential(t *testing.T) {
	for _, p := range []ctree.Params{
		ctree.DefaultParams(),
		{B: 8, Codec: 0}, // small chunks, Delta
		ctree.PlainParams(),
	} {
		r := xhash.NewRNG(42)
		g := NewWeightedGraphWith(p)
		ref := map[uint64]float32{}
		for round := 0; round < 8; round++ {
			ins := randomWeightedBatch(r, 400, 150)
			g = g.InsertEdges(ins)
			for _, e := range ins {
				ref[uint64(e.Src)<<32|uint64(e.Dst)] = e.Val
			}
			del := randomWeightedBatch(r, 120, 150)
			g = g.DeleteEdges(del)
			for _, e := range del {
				delete(ref, uint64(e.Src)<<32|uint64(e.Dst))
			}
			if int(g.NumEdges()) != len(ref) {
				t.Fatalf("params %+v round %d: m = %d, want %d", p, round, g.NumEdges(), len(ref))
			}
		}
		for k, w := range ref {
			u, v := uint32(k>>32), uint32(k)
			if got, ok := g.Weight(u, v); !ok || got != w {
				t.Fatalf("params %+v: Weight(%d,%d) = %v,%v want %v", p, u, v, got, ok, w)
			}
		}
		// Neighbor enumeration must be sorted and carry the right weights.
		for u := uint32(0); u < 150; u++ {
			var prev int64 = -1
			g.ForEachNeighborW(u, func(v uint32, w float32) bool {
				if int64(v) <= prev {
					t.Fatalf("params %+v: neighbors of %d out of order", p, u)
				}
				prev = int64(v)
				if want := ref[uint64(u)<<32|uint64(v)]; want != w {
					t.Fatalf("params %+v: weight (%d,%d) = %v want %v", p, u, v, w, want)
				}
				return true
			})
		}
	}
}

func TestWeightedInsertEdgesWithMerge(t *testing.T) {
	g := NewWeightedGraph().InsertEdges([]WeightedEdge{{Src: 1, Dst: 2, Val: 10}})
	g = g.InsertEdgesWith([]WeightedEdge{{Src: 1, Dst: 2, Val: 5}},
		func(old, new float32) float32 { return old + new })
	if w, _ := g.Weight(1, 2); w != 15 {
		t.Fatalf("additive merge: weight = %v, want 15", w)
	}
}

func TestWeightedPersistenceAcrossBatches(t *testing.T) {
	g0 := NewWeightedGraph().InsertEdges([]WeightedEdge{{Src: 0, Dst: 1, Val: 1}})
	g1 := g0.InsertEdges([]WeightedEdge{{Src: 0, Dst: 1, Val: 2}, {Src: 0, Dst: 9, Val: 9}})
	g2 := g1.DeleteEdges([]WeightedEdge{{Src: 0, Dst: 1}})
	if w, _ := g0.Weight(0, 1); w != 1 {
		t.Fatal("version 0 mutated")
	}
	if w, _ := g1.Weight(0, 1); w != 2 {
		t.Fatal("version 1 wrong")
	}
	if _, ok := g2.Weight(0, 1); ok {
		t.Fatal("version 2 kept deleted edge")
	}
	if w, _ := g2.Weight(0, 9); w != 9 {
		t.Fatal("version 2 lost unrelated edge")
	}
}

func TestDeleteEdgesGC(t *testing.T) {
	und := MakeUndirected([]Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 3, Dst: 5}})
	g := NewGraph(ctree.DefaultParams()).InsertEdges(und)
	if g.NumVertices() != 5 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Default DeleteEdges keeps emptied vertices.
	kept := g.DeleteEdges(MakeUndirected([]Edge{{Src: 1, Dst: 2}}))
	if !kept.HasVertex(1) || !kept.HasVertex(2) {
		t.Fatal("DeleteEdges must keep degree-zero vertices")
	}
	// Opt-in GC drops exactly the emptied endpoints.
	gc := g.DeleteEdgesGC(MakeUndirected([]Edge{{Src: 1, Dst: 2}}))
	if gc.HasVertex(1) || gc.HasVertex(2) {
		t.Fatal("DeleteEdgesGC kept emptied vertices")
	}
	for _, u := range []uint32{3, 4, 5} {
		if !gc.HasVertex(u) {
			t.Fatalf("DeleteEdgesGC dropped live vertex %d", u)
		}
	}
	// Deleting one of vertex 3's two edges must not drop 3.
	gc2 := g.DeleteEdgesGC(MakeUndirected([]Edge{{Src: 3, Dst: 4}}))
	if !gc2.HasVertex(3) || gc2.HasVertex(4) {
		t.Fatal("DeleteEdgesGC dropped a vertex that still has edges (or kept an empty one)")
	}
}

func TestCollectIsolated(t *testing.T) {
	g := NewGraph(ctree.DefaultParams()).
		InsertVertices([]uint32{10, 20, 30}).
		InsertEdges(MakeUndirected([]Edge{{Src: 1, Dst: 2}}))
	cg := g.CollectIsolated()
	if cg.NumVertices() != 2 || !cg.HasVertex(1) || !cg.HasVertex(2) {
		t.Fatalf("CollectIsolated: n = %d", cg.NumVertices())
	}
	if cg.NumEdges() != g.NumEdges() {
		t.Fatal("CollectIsolated changed the edge set")
	}
	// No-op when nothing is isolated: representation is shared.
	if cg2 := cg.CollectIsolated(); cg2.NumVertices() != 2 {
		t.Fatal("idempotence violated")
	}
	// Weighted variant.
	wg := NewWeightedGraph().InsertEdges([]WeightedEdge{{Src: 1, Dst: 2, Val: 3}})
	wg = wg.DeleteEdges([]WeightedEdge{{Src: 1, Dst: 2}})
	if wg.CollectIsolated().NumVertices() != 0 {
		t.Fatal("weighted CollectIsolated kept isolated vertices")
	}
}

// Analytic per-node sizes of the plain purely-functional weighted tree,
// mirroring aspenMemoryBytes in the root bench_test.go: a pftree node
// holds key(4) + value(4, the weight) + two pointers(16) + size(4) +
// aug(8) = 36 bytes, padded to 40. The compressed format pays 48 bytes per head node plus its
// chunk bytes (gaps + interleaved weights).
const (
	plainWeightedEdgeNode = 40
	ctreeWeightedEdgeNode = 48
)

// TestWeightedBytesPerEdgeRatio is the space acceptance criterion of this
// PR: on an rMAT graph, the delta-encoded weighted representation must
// spend at most 60% of the bytes per edge of the plain-tree weighted
// representation.
func TestWeightedBytesPerEdgeRatio(t *testing.T) {
	edges := rmatEdges(13, 1<<16, 5)
	batch := make([]WeightedEdge, 0, 2*len(edges))
	for _, e := range edges {
		w := float32(xhash.Mix32(e[0]^e[1])%1000) / 8
		batch = append(batch,
			WeightedEdge{Src: e[0], Dst: e[1], Val: w},
			WeightedEdge{Src: e[1], Dst: e[0], Val: w})
	}
	comp := NewWeightedGraphWith(ctree.DefaultParams()).InsertEdges(batch)
	plain := NewWeightedGraphWith(ctree.PlainParams()).InsertEdges(batch)
	if comp.NumEdges() != plain.NumEdges() || comp.NumEdges() == 0 {
		t.Fatalf("edge counts differ: %d vs %d", comp.NumEdges(), plain.NumEdges())
	}
	m := float64(comp.NumEdges())
	cs, ps := comp.Stats(), plain.Stats()
	compBytes := float64(cs.Edge.Nodes*ctreeWeightedEdgeNode+cs.Edge.ChunkBytes) / m
	plainBytes := float64(ps.Edge.Nodes*plainWeightedEdgeNode) / m
	t.Logf("weighted bytes/edge: compressed %.2f, plain %.2f (ratio %.2f)",
		compBytes, plainBytes, compBytes/plainBytes)
	if compBytes > 0.6*plainBytes {
		t.Fatalf("compressed weighted representation too large: %.2f bytes/edge vs plain %.2f (> 60%%)",
			compBytes, plainBytes)
	}
}
