package aspen

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ctree"
	"repro/internal/graphio"
	"repro/internal/xhash"
)

// sortWeightedEdgeBatch is the batch sort the weighted batch-core
// differential drives directly.
func sortWeightedEdgeBatch(edges []WeightedEdge) ([]uint64, []float32) {
	return sortEdgeBatchKV(edges)
}

// totalWeight sums every edge weight of g.
func totalWeight(g WeightedGraph) float64 {
	var total float64
	g.ForEachVertex(func(_ uint32, et ctree.Tree[float32]) bool {
		et.ForEachKV(func(_ uint32, w float32) bool {
			total += float64(w)
			return true
		})
		return true
	})
	return total
}

// TestEdgeLayout pins the batch element sizes: the payload field must stay
// first, or Go pads the trailing zero-width struct{} and Edge grows to 12
// bytes.
func TestEdgeLayout(t *testing.T) {
	if got := unsafe.Sizeof(Edge{}); got != 8 {
		t.Errorf("sizeof(Edge) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(WeightedEdge{}); got != 12 {
		t.Errorf("sizeof(WeightedEdge) = %d, want 12", got)
	}
}

// stampModel is the reference for a GraphOf[uint64] whose payload is an edge
// timestamp: (src<<32 | dst) -> stamp.
type stampModel map[uint64]uint64

func (m stampModel) clone() stampModel {
	c := make(stampModel, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// adjacency lists src's (neighbor, stamp) pairs in neighbor order.
func (m stampModel) adjacency(src uint32) [][2]uint64 {
	var out [][2]uint64
	for k, v := range m {
		if uint32(k>>32) == src {
			out = append(out, [2]uint64{uint64(uint32(k)), v})
		}
	}
	slices.SortFunc(out, func(a, b [2]uint64) int { return int(a[0]) - int(b[0]) })
	return out
}

func neighborsW[G interface {
	ForEachNeighborW(uint32, func(uint32, uint64) bool)
}](g G, u uint32) [][2]uint64 {
	var out [][2]uint64
	g.ForEachNeighborW(u, func(v uint32, s uint64) bool {
		out = append(out, [2]uint64{uint64(v), s})
		return true
	})
	return out
}

// TestThirdPayload runs a uint64 (timestamp) payload through every generic
// operation of the package — insert, last-writer-wins re-stamp, delete,
// DiffVersions, flat build and patch, snapshot round trip and Equal — with
// no code of its own: a new payload type needs none.
func TestThirdPayload(t *testing.T) {
	r := xhash.NewRNG(97)
	stamped := func(es []Edge, stamp uint64) []EdgeOf[uint64] {
		out := make([]EdgeOf[uint64], len(es))
		for i, e := range es {
			out[i] = EdgeOf[uint64]{Val: stamp + uint64(i), Src: e.Src, Dst: e.Dst}
		}
		return out
	}
	base := randomEdges(r, 800, 120)
	steps := []struct {
		name     string
		ins, del []EdgeOf[uint64]
	}{
		{name: "insert", ins: stamped(base, 1_000)},
		{name: "restamp", ins: stamped(base[:300], 1<<40)},
		{name: "restamp-dup", ins: append(stamped(base[:50], 2<<40), stamped(base[:50], 3<<40)...)},
		{name: "delete", del: stamped(base[100:400], 0)},
		{name: "mixed-new", ins: stamped(randomEdges(r, 200, 160), 4<<40)},
	}
	p := params()
	g, model := NewGraphOf[uint64](p), stampModel{}
	flat := BuildFlatSnapshot(g)
	for _, st := range steps {
		prev, prevModel := g, model.clone()
		for _, e := range st.ins {
			model[uint64(e.Src)<<32|uint64(e.Dst)] = e.Val
		}
		for _, e := range st.del {
			delete(model, uint64(e.Src)<<32|uint64(e.Dst))
		}
		g = g.InsertEdges(st.ins).DeleteEdges(st.del)

		if g.NumEdges() != uint64(len(model)) {
			t.Fatalf("%s: NumEdges = %d, want %d", st.name, g.NumEdges(), len(model))
		}
		for k, want := range model {
			if got, ok := g.Weight(uint32(k>>32), uint32(k)); !ok || got != want {
				t.Fatalf("%s: stamp(%d,%d) = %d,%v want %d", st.name, k>>32, uint32(k), got, ok, want)
			}
		}

		// DiffVersions reports exactly the vertices whose stamped adjacency
		// moved, and a re-stamp surfaces as a changed edge.
		var touched []uint32
		DiffVersions(prev, g, func(d VertexDelta[uint64]) bool {
			touched = append(touched, d.ID)
			d.Edges(func(e uint32, kind ctree.DiffKind, oldV, newV uint64) bool {
				k := uint64(d.ID)<<32 | uint64(e)
				if kind == DiffChanged && (prevModel[k] != oldV || model[k] != newV) {
					t.Fatalf("%s: edge (%d,%d) changed %d -> %d, model %d -> %d", st.name, d.ID, e, oldV, newV, prevModel[k], model[k])
				}
				return true
			})
			return true
		})
		for u := uint32(0); int(u) < max(g.Order(), prev.Order()); u++ {
			moved := prev.HasVertex(u) != g.HasVertex(u) ||
				!slices.Equal(prevModel.adjacency(u), model.adjacency(u))
			if moved != slices.Contains(touched, u) {
				t.Fatalf("%s: vertex %d moved=%v but DiffVersions touched=%v", st.name, u, moved, !moved)
			}
		}

		// A patched flat view is observably the built one.
		flat = PatchFlatSnapshot(flat, g)
		built := BuildFlatSnapshot(g)
		if !flat.Current(g) || flat.Order() != built.Order() || flat.NumEdges() != built.NumEdges() {
			t.Fatalf("%s: patched view shape differs from built", st.name)
		}
		for u := uint32(0); int(u) < built.Order(); u++ {
			if flat.HasVertex(u) != built.HasVertex(u) || flat.Degree(u) != built.Degree(u) ||
				!slices.Equal(neighborsW(flat, u), neighborsW(built, u)) ||
				!slices.Equal(neighborsW(g, u), model.adjacency(u)) {
				t.Fatalf("%s: vertex %d differs between patched view, built view and model", st.name, u)
			}
		}

		// Snapshot round trip at payload width 8, then Equal both ways.
		var buf bytes.Buffer
		if err := graphio.WriteSnapshot(&buf, g.Snapshot()); err != nil {
			t.Fatal(err)
		}
		s, err := graphio.ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if s.Width != 8 {
			t.Fatalf("%s: snapshot width %d, want 8", st.name, s.Width)
		}
		back, err := FromSnapshot[uint64](p, s)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(g) || !g.Equal(back) {
			t.Fatalf("%s: graph differs after snapshot round trip", st.name)
		}
		if back.Equal(prev) {
			t.Fatalf("%s: Equal missed the step's change", st.name)
		}
		if _, err := GraphFromSnapshot(p, s); err == nil {
			t.Fatalf("%s: a width-8 snapshot loaded as an id-only graph", st.name)
		}
	}
}

// TestWeightedSnapshotPayloadImage pins the checkpoint payload of a weighted
// graph to one little-endian float32 per edge, in edge order, so existing
// checkpoints keep loading.
func TestWeightedSnapshotPayloadImage(t *testing.T) {
	ws := []float32{1.5, -2.25, float32(math.Inf(1))}
	g := NewWeightedGraph().InsertEdges([]WeightedEdge{
		{Src: 3, Dst: 0, Val: ws[2]}, {Src: 0, Dst: 2, Val: ws[1]}, {Src: 0, Dst: 1, Val: ws[0]},
	})
	var want []byte
	for _, w := range ws {
		want = binary.LittleEndian.AppendUint32(want, math.Float32bits(w))
	}
	s := g.Snapshot()
	if s.Width != 4 || !bytes.Equal(s.Payload, want) {
		t.Fatalf("payload width %d image %x, want 4 / %x", s.Width, s.Payload, want)
	}
	if s := NewGraph(params()).InsertEdges([]Edge{{Src: 0, Dst: 1}}).Snapshot(); s.Width != 0 || s.Payload != nil {
		t.Fatalf("id-only snapshot has width %d and %d payload bytes", s.Width, len(s.Payload))
	}
}

// TestEqualComparesPayloadBits checks that Equal compares weights by bit
// image: a NaN-weighted graph equals its own checkpoint, and +0 and −0 are
// different weights.
func TestEqualComparesPayloadBits(t *testing.T) {
	one := func(w float32) WeightedGraph {
		return NewWeightedGraph().InsertEdges([]WeightedEdge{{Src: 1, Dst: 2, Val: w}, {Src: 2, Dst: 1, Val: 1}})
	}
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	back, err := WeightedGraphFromSnapshot(ctree.DefaultParams(), one(nan).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !one(nan).Equal(one(nan)) || !back.Equal(one(nan)) {
		t.Error("a NaN-weighted graph differs from its rebuild or its checkpoint")
	}
	if one(0).Equal(one(negZero)) || one(negZero).Equal(one(0)) {
		t.Error("+0 and -0 weights compare equal")
	}
	if !one(negZero).Equal(one(negZero)) {
		t.Error("a -0-weighted graph differs from its rebuild")
	}
}
