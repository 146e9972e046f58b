package aspen

import (
	"math"
	"testing"

	"repro/internal/xhash"
)

func TestWeightedInsertFind(t *testing.T) {
	g := NewWeightedGraph()
	g = g.InsertEdges([]WeightedEdge{
		{Src: 0, Dst: 1, Val: 1.5},
		{Src: 0, Dst: 2, Val: 2.5},
		{Src: 1, Dst: 0, Val: 1.5},
	})
	// Like the unweighted graph, the shared batch path creates
	// destination-only endpoints (vertex 2) so traversals can land on them.
	if g.NumEdges() != 3 || g.NumVertices() != 3 {
		t.Fatalf("m=%d n=%d", g.NumEdges(), g.NumVertices())
	}
	if w, ok := g.Weight(0, 2); !ok || w != 2.5 {
		t.Fatalf("Weight(0,2) = %f,%v", w, ok)
	}
	if _, ok := g.Weight(0, 9); ok {
		t.Fatal("phantom edge")
	}
	if g.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d", g.Degree(0))
	}
}

func TestWeightedUpdateOverwrites(t *testing.T) {
	g := NewWeightedGraph().InsertEdges([]WeightedEdge{{Src: 1, Dst: 2, Val: 1}})
	g2 := g.InsertEdges([]WeightedEdge{{Src: 1, Dst: 2, Val: 9}})
	if w, _ := g2.Weight(1, 2); w != 9 {
		t.Fatalf("weight not updated: %f", w)
	}
	// Persistence: the old version keeps the old weight.
	if w, _ := g.Weight(1, 2); w != 1 {
		t.Fatalf("old version mutated: %f", w)
	}
	if g2.NumEdges() != 1 {
		t.Fatalf("update duplicated the edge: m=%d", g2.NumEdges())
	}
}

func TestWeightedDelete(t *testing.T) {
	g := NewWeightedGraph().InsertEdges([]WeightedEdge{
		{Src: 0, Dst: 1, Val: 1},
		{Src: 0, Dst: 2, Val: 2},
	})
	g2 := g.DeleteEdges([]WeightedEdge{{Src: 0, Dst: 1}, {Src: 5, Dst: 6}})
	if g2.NumEdges() != 1 {
		t.Fatalf("m = %d", g2.NumEdges())
	}
	if _, ok := g2.Weight(0, 1); ok {
		t.Fatal("edge survived delete")
	}
	if w, ok := g2.Weight(0, 2); !ok || w != 2 {
		t.Fatal("unrelated edge damaged")
	}
}

func TestWeightedModel(t *testing.T) {
	r := xhash.NewRNG(8)
	g := NewWeightedGraph()
	ref := map[uint64]float32{}
	for round := 0; round < 10; round++ {
		var batch []WeightedEdge
		for i := 0; i < 50; i++ {
			e := WeightedEdge{
				Src: uint32(r.Intn(20)),
				Dst: uint32(r.Intn(20)),
				Val: float32(r.Intn(100)),
			}
			batch = append(batch, e)
			ref[uint64(e.Src)<<32|uint64(e.Dst)] = e.Val
		}
		g = g.InsertEdges(batch)
	}
	if int(g.NumEdges()) != len(ref) {
		t.Fatalf("m = %d, want %d", g.NumEdges(), len(ref))
	}
	var wantTotal float64
	for k, w := range ref {
		u, v := uint32(k>>32), uint32(k)
		got, ok := g.Weight(u, v)
		if !ok || got != w {
			t.Fatalf("Weight(%d,%d) = %f,%v want %f", u, v, got, ok, w)
		}
		wantTotal += float64(w)
	}
	if math.Abs(totalWeight(g)-wantTotal) > 1e-3 {
		t.Fatalf("total weight = %f, want %f", totalWeight(g), wantTotal)
	}
}

func TestWeightedNeighborOrder(t *testing.T) {
	g := NewWeightedGraph().InsertEdges([]WeightedEdge{
		{Src: 0, Dst: 5, Val: 5},
		{Src: 0, Dst: 1, Val: 1},
		{Src: 0, Dst: 3, Val: 3},
	})
	var order []uint32
	g.ForEachNeighborW(0, func(v uint32, w float32) bool {
		order = append(order, v)
		if float32(v) != w {
			t.Fatalf("weight of %d is %f", v, w)
		}
		return true
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 5 {
		t.Fatalf("order = %v", order)
	}
}
