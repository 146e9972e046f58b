// Weighted: the weighted-graph extension (the paper's stated future work) —
// maintain a purely-functional weighted graph whose edge weights live
// inside the compressed C-tree chunks, stream weight updates against it,
// and answer single-source shortest-path queries on snapshots with the
// parallel SSSP from the algorithm suite.
package main

import (
	"fmt"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
)

// totalWeight sums all edge weights — an associative aggregation the paper
// notes could be maintained by augmentation.
func totalWeight(g aspen.WeightedGraph) float64 {
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

func main() {
	// A small road-network-like weighted graph. Roads are symmetric, so
	// each segment is inserted in both directions with the same weight.
	g := aspen.NewWeightedGraph().InsertEdges(aspen.MakeUndirectedWeighted([]aspen.WeightedEdge{
		{Src: 0, Dst: 1, Val: 4},
		{Src: 1, Dst: 2, Val: 3},
		{Src: 0, Dst: 3, Val: 10},
		{Src: 2, Dst: 3, Val: 2},
	}))
	fmt.Printf("network: %d nodes, %d directed road segments, total length %.0f\n",
		g.NumVertices(), g.NumEdges(), totalWeight(g))
	s := g.Stats()
	fmt.Printf("compressed weighted adjacency: %d chunk bytes (ids + weights interleaved)\n",
		s.Edge.ChunkBytes)

	before := algos.SSSP(g, 0)
	fmt.Printf("shortest 0 -> 3 before congestion: %.0f (via 1 and 2)\n", before[3])

	// A traffic update re-weights segment 1<->2 in place (inserting an
	// existing edge overwrites its weight); snapshots are persistent, so
	// the old distances remain queryable.
	g2 := g.InsertEdges(aspen.MakeUndirectedWeighted([]aspen.WeightedEdge{
		{Src: 1, Dst: 2, Val: 20},
	}))
	after := algos.SSSP(g2, 0)
	fmt.Printf("shortest 0 -> 3 after congestion:  %.0f (direct road wins)\n", after[3])
	fmt.Printf("old snapshot still answers:         %.0f\n", algos.SSSP(g, 0)[3])
}
