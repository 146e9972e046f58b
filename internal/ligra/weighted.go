package ligra

// WeightedGraph is the optional weighted-traversal capability: engines
// whose adjacency carries per-edge weights (aspen.WeightedGraph's
// compressed float32 payload) expose them to the algorithm layer through
// ForEachNeighborW, and weighted algorithms (SSSP and friends) run over
// WeightedEdgeMap exactly as their unweighted counterparts run over
// EdgeMap.
type WeightedGraph interface {
	Graph
	// ForEachNeighborW applies f to u's (neighbor, weight) pairs in
	// increasing neighbor order until f returns false.
	ForEachNeighborW(u uint32, f func(v uint32, w float32) bool)
}

// FlatWeightedGraph is the weighted flat-snapshot capability
// (aspen.FlatWeightedSnapshot): a dense id-indexed degree array over a
// weighted adjacency, giving WeightedEdgeMap the same O(1) degree access
// and exact work-based scheduling as FlatGraph gives EdgeMap.
type FlatWeightedGraph interface {
	WeightedGraph
	// Degrees returns the id-indexed degree array, length Order(). Callers
	// must treat it as read-only.
	Degrees() []int32
}

// WeightedEdgeMap applies F over weighted edges (u, v, w) with u in subset
// U and C(v) true, and returns the subset of targets v for which F returned
// true. The contract mirrors EdgeMap (§2): F must be safe for concurrent
// calls and should claim each target atomically if it must fire once per
// vertex. Direction optimization (§5.1) picks a dense, in-neighbor oriented
// traversal when the frontier is large; weights are symmetric on the
// symmetrized inputs this repository uses, so the pulled weight equals the
// pushed one. It runs on the same core as EdgeMap (see edgeMap): only the
// per-block neighbor callbacks differ.
func WeightedEdgeMap(g WeightedGraph, u VertexSubset, f func(src, dst uint32, w float32) bool, c func(v uint32) bool, opts EdgeMapOpts) VertexSubset {
	return edgeMap(g, u, c, opts,
		func(b *block, in []bool) func(v uint32) {
			visit := func(s uint32, w float32) bool {
				if !in[s] {
					return true
				}
				if f(s, b.cur, w) {
					b.claim()
				}
				return c(b.cur)
			}
			return func(v uint32) { b.cur = v; g.ForEachNeighborW(v, visit) }
		},
		func(b *block) func(s uint32) {
			visit := func(v uint32, w float32) bool {
				if c(v) && f(b.cur, v, w) {
					b.out = append(b.out, v)
				}
				return true
			}
			return func(s uint32) { b.cur = s; g.ForEachNeighborW(s, visit) }
		})
}
