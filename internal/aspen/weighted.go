package aspen

import (
	"repro/internal/ctree"
	"repro/internal/parallel"
)

// WeightedGraph extends Aspen with real-valued edge weights — functionality
// the paper explicitly defers to future work (§6: "Aspen currently does not
// support weighted edges"). Edge trees are compressed C-trees over a
// float32 payload (ctree.Tree[float32]): neighbor ids are difference-
// encoded exactly as in the unweighted graph, with each id's weight stored
// as four fixed bytes interleaved into the chunk, so weighted workloads
// keep the space and locality wins of the compressed format. Batch updates
// share the radix-sorted fused vertex-tree pass of the unweighted graph
// (batch.go); duplicate updates resolve last-writer-wins in batch order.
type WeightedGraph struct {
	p  ctree.Params
	vt *vnode[float32]
}

// WeightedEdge is a directed weighted edge update.
type WeightedEdge struct {
	Src, Dst uint32
	Weight   float32
}

// NewWeightedGraph returns an empty weighted graph with the paper's default
// compression parameters.
func NewWeightedGraph() WeightedGraph { return NewWeightedGraphWith(ctree.DefaultParams()) }

// NewWeightedGraphWith returns an empty weighted graph whose edge trees use
// params p.
func NewWeightedGraphWith(p ctree.Params) WeightedGraph { return WeightedGraph{p: p} }

// Params returns the edge-tree parameters of g.
func (g WeightedGraph) Params() ctree.Params { return g.p }

// NumVertices returns the number of vertices in O(1).
func (g WeightedGraph) NumVertices() int { return g.vt.Size() }

// NumEdges returns the number of directed edges in O(1) via augmentation.
func (g WeightedGraph) NumEdges() uint64 { return wvops.AugOf(g.vt) }

// Order returns the vertex-id space size (max id + 1).
func (g WeightedGraph) Order() int {
	last := wvops.Last(g.vt)
	if last == nil {
		return 0
	}
	return int(last.Key()) + 1
}

// HasVertex reports whether u is a vertex of g.
func (g WeightedGraph) HasVertex(u uint32) bool {
	_, ok := wvops.Find(g.vt, u)
	return ok
}

// EdgeTree returns u's weighted edge C-tree. O(log n).
func (g WeightedGraph) EdgeTree(u uint32) (ctree.Tree[float32], bool) {
	return wvops.Find(g.vt, u)
}

// Degree returns u's degree.
func (g WeightedGraph) Degree(u uint32) int {
	et, ok := wvops.Find(g.vt, u)
	if !ok {
		return 0
	}
	return int(et.Size())
}

// Weight returns the weight of edge (u, v).
func (g WeightedGraph) Weight(u, v uint32) (float32, bool) {
	et, ok := wvops.Find(g.vt, u)
	if !ok {
		return 0, false
	}
	return et.Find(v)
}

// ForEachNeighbor applies f to u's neighbors in increasing order (weights
// dropped), satisfying the ligra.Graph interface.
func (g WeightedGraph) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	if et, ok := wvops.Find(g.vt, u); ok {
		et.ForEach(f)
	}
}

// ForEachNeighborPar applies f to u's neighbors with edge-tree parallelism
// (unordered).
func (g WeightedGraph) ForEachNeighborPar(u uint32, f func(v uint32)) {
	if et, ok := wvops.Find(g.vt, u); ok {
		et.ForEachPar(f)
	}
}

// ForEachNeighborW applies f to (neighbor, weight) pairs in increasing
// neighbor order until f returns false — the ligra.WeightedGraph
// capability.
func (g WeightedGraph) ForEachNeighborW(u uint32, f func(v uint32, w float32) bool) {
	if et, ok := wvops.Find(g.vt, u); ok {
		et.ForEachKV(f)
	}
}

// sortWeightedEdgeBatch packs, stably sorts and dedupes a weighted batch;
// for duplicate (src, dst) pairs the last weight in batch order wins.
func sortWeightedEdgeBatch(edges []WeightedEdge) ([]uint64, []float32) {
	packed := make([]uint64, len(edges))
	ws := make([]float32, len(edges))
	parallel.For(len(edges), func(i int) {
		packed[i] = uint64(edges[i].Src)<<32 | uint64(edges[i].Dst)
		ws[i] = edges[i].Weight
	})
	parallel.RadixSortUint64Pairs(packed, ws)
	return parallel.DedupSortedUint64PairsLast(packed, ws)
}

// InsertEdges adds a batch of weighted directed edges; duplicate updates to
// the same edge keep the last weight in batch order, and updates to
// existing edges overwrite their weight (the paper's interface allows
// weight updates through the same insertion path, §5). Same fused
// single-pass batch algorithm as the unweighted graph.
func (g WeightedGraph) InsertEdges(edges []WeightedEdge) WeightedGraph {
	if len(edges) == 0 {
		return g
	}
	packed, ws := sortWeightedEdgeBatch(edges)
	return WeightedGraph{p: g.p, vt: insertEdgesCore(wvops, g.p, g.vt, packed, ws, nil)}
}

// InsertEdgesWith is InsertEdges with an explicit weight-merge policy for
// edges that already exist: the stored weight becomes merge(old, new). A
// nil merge overwrites (last-writer-wins).
func (g WeightedGraph) InsertEdgesWith(edges []WeightedEdge, merge func(old, new float32) float32) WeightedGraph {
	if len(edges) == 0 {
		return g
	}
	packed, ws := sortWeightedEdgeBatch(edges)
	return WeightedGraph{p: g.p, vt: insertEdgesCore(wvops, g.p, g.vt, packed, ws, merge)}
}

// DeleteEdges removes a batch of directed edges (weights ignored); vertices
// are kept even at degree zero.
func (g WeightedGraph) DeleteEdges(edges []WeightedEdge) WeightedGraph {
	if len(edges) == 0 {
		return g
	}
	packed := make([]uint64, len(edges))
	parallel.For(len(edges), func(i int) {
		packed[i] = uint64(edges[i].Src)<<32 | uint64(edges[i].Dst)
	})
	parallel.RadixSortUint64(packed)
	packed = parallel.DedupSortedUint64(packed)
	return WeightedGraph{p: g.p, vt: deleteEdgesCore(wvops, g.p, g.vt, packed, false)}
}

// CollectIsolated returns a graph without its degree-zero vertices.
func (g WeightedGraph) CollectIsolated() WeightedGraph {
	return WeightedGraph{p: g.p, vt: collectIsolatedCore(wvops, g.vt)}
}

// ForEachVertexW applies f to every (vertex, weighted edge-tree) pair in id
// order until f returns false.
func (g WeightedGraph) ForEachVertexW(f func(u uint32, et ctree.Tree[float32]) bool) {
	wvops.ForEach(g.vt, f)
}

// TotalWeight sums all edge weights (an example of an associative
// aggregation the paper notes could be maintained by augmentation).
func (g WeightedGraph) TotalWeight() float64 {
	var total float64
	wvops.ForEach(g.vt, func(_ uint32, et ctree.Tree[float32]) bool {
		et.ForEachKV(func(_ uint32, w float32) bool {
			total += float64(w)
			return true
		})
		return true
	})
	return total
}

// Stats walks the graph and returns its memory shape (chunk bytes include
// the interleaved weight bytes).
func (g WeightedGraph) Stats() Stats {
	s := Stats{VertexNodes: g.vt.Size()}
	wvops.ForEach(g.vt, func(_ uint32, et ctree.Tree[float32]) bool {
		s.Edge.Add(et.Stats())
		return true
	})
	return s
}

// MakeUndirectedWeighted duplicates each weighted edge in both directions
// with the same weight (symmetric-graph batch form).
func MakeUndirectedWeighted(edges []WeightedEdge) []WeightedEdge {
	out := make([]WeightedEdge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, WeightedEdge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return out
}
