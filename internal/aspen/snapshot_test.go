package aspen

import (
	"bytes"
	"testing"

	"repro/internal/graphio"
	"repro/internal/xhash"
)

func TestGraphSnapshotRoundTrip(t *testing.T) {
	r := xhash.NewRNG(23)
	g := NewGraph(params()).InsertEdges(MakeUndirected(randomEdges(r, 600, 90)))
	// Sparse ids and an isolated vertex must survive the round trip.
	g = g.InsertEdges([]Edge{{Src: 1 << 20, Dst: 7}}).InsertVertices([]uint32{500000})

	s := g.Snapshot()
	var buf bytes.Buffer
	if err := graphio.WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := graphio.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GraphFromSnapshot(params(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatal("graph not equal after snapshot round trip")
	}
	if !g2.HasVertex(500000) || g2.Degree(500000) != 0 {
		t.Fatal("isolated vertex lost")
	}
	if !g2.HasEdge(1<<20, 7) {
		t.Fatal("sparse-id edge lost")
	}
}

func TestWeightedSnapshotRoundTrip(t *testing.T) {
	r := xhash.NewRNG(29)
	var edges []WeightedEdge
	for i := 0; i < 500; i++ {
		edges = append(edges, WeightedEdge{
			Src: uint32(r.Next() % 80),
			Dst: uint32(r.Next() % 80),
			Val: float32(r.Next()%1000) / 7,
		})
	}
	g := NewWeightedGraph().InsertEdges(MakeUndirectedWeighted(edges))

	s := g.Snapshot()
	var buf bytes.Buffer
	if err := graphio.WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := graphio.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := WeightedGraphFromSnapshot(g.Params(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatal("weighted graph not equal after snapshot round trip")
	}
}

func TestSnapshotWidthMismatch(t *testing.T) {
	g := NewGraph(params()).InsertEdges([]Edge{{Src: 0, Dst: 1}})
	if _, err := WeightedGraphFromSnapshot(g.Params(), g.Snapshot()); err == nil {
		t.Fatal("unweighted snapshot accepted as weighted")
	}
	w := NewWeightedGraph().InsertEdges([]WeightedEdge{{Src: 0, Dst: 1, Val: 2}})
	if _, err := GraphFromSnapshot(w.Params(), w.Snapshot()); err == nil {
		t.Fatal("weighted snapshot accepted as unweighted")
	}
}

func TestGraphEqual(t *testing.T) {
	r := xhash.NewRNG(31)
	base := randomEdges(r, 300, 50)
	g1 := NewGraph(params()).InsertEdges(base)
	g2 := NewGraph(params()).InsertEdges(base)
	if !g1.Equal(g2) {
		t.Fatal("independently built equal graphs compare unequal")
	}
	if !g1.Equal(g1) {
		t.Fatal("self-compare failed")
	}
	g3 := g1.InsertEdges([]Edge{{Src: 200, Dst: 201}})
	if g1.Equal(g3) {
		t.Fatal("different graphs compare equal")
	}
	// Same edge count, different edges.
	g4 := g1.DeleteEdges(base[:1]).InsertEdges([]Edge{{Src: 210, Dst: 211}})
	if g4.NumEdges() == g1.NumEdges() && g1.Equal(g4) {
		t.Fatal("different graphs with equal counts compare equal")
	}
	// Re-inserting an existing edge yields a logically equal graph that
	// shares almost every edge tree — the EqualRep fast path.
	g5 := g1.InsertEdges(base[:1])
	if !g1.Equal(g5) {
		t.Fatal("re-insert of existing edge changed the graph")
	}
}

func TestWeightedEqualWeightSensitive(t *testing.T) {
	e := []WeightedEdge{{Src: 0, Dst: 1, Val: 1.5}, {Src: 1, Dst: 2, Val: 2.5}}
	g1 := NewWeightedGraph().InsertEdges(e)
	g2 := NewWeightedGraph().InsertEdges(e)
	if !g1.Equal(g2) {
		t.Fatal("equal weighted graphs compare unequal")
	}
	g3 := g1.InsertEdges([]WeightedEdge{{Src: 0, Dst: 1, Val: 9}})
	if g1.Equal(g3) {
		t.Fatal("weight change not detected")
	}
}
