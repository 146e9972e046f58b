package shard

import (
	"repro/internal/ligra"
	"repro/internal/parallel"
)

// FlatView is the stitched §5.1 flat snapshot of a version vector: each
// shard's flat view plus one global id-indexed degree array assembled from
// the per-shard degree arrays — contiguous copies under a RangePartitioner,
// an ownership scatter otherwise. The stitched array is what ligra's
// FlatGraph routing consumes: O(1) degree access and exact work-based
// frontier partitioning on degree prefix sums, now spanning all shards.
// Neighbor iteration dispatches to the owning shard's flat view in O(1).
type FlatView struct {
	part  Partitioner
	views []ligra.Graph
	degs  []int32
	order int
	m     uint64
}

// Order returns the vertex-id space size.
func (f *FlatView) Order() int { return f.order }

// NumEdges returns the directed edge count over all shards.
func (f *FlatView) NumEdges() uint64 { return f.m }

// Degree returns u's degree in O(1) from the stitched array. Total:
// out-of-range ids have degree 0.
func (f *FlatView) Degree(u uint32) int {
	if int(u) >= f.order {
		return 0
	}
	return int(f.degs[u])
}

// Degrees exposes the stitched id-indexed degree array — the
// ligra.FlatGraph capability. Callers must treat it as read-only.
func (f *FlatView) Degrees() []int32 { return f.degs }

// ForEachNeighbor applies fn to u's neighbors in increasing order until fn
// returns false, via the owning shard's flat view.
func (f *FlatView) ForEachNeighbor(u uint32, fn func(w uint32) bool) {
	f.views[f.part.Owner(u)].ForEachNeighbor(u, fn)
}

// ForEachNeighborPar applies fn with edge-tree parallelism when the
// owning shard's view supports it.
func (f *FlatView) ForEachNeighborPar(u uint32, fn func(w uint32)) {
	v := f.views[f.part.Owner(u)]
	if pg, ok := v.(ligra.ParallelNeighborGraph); ok {
		pg.ForEachNeighborPar(u, fn)
		return
	}
	v.ForEachNeighbor(u, func(w uint32) bool { fn(w); return true })
}

// FlatWeightedView is the stitched flat view of weighted shards; it
// additionally satisfies ligra.WeightedGraph (and so
// ligra.FlatWeightedGraph), giving weighted kernels the stitched degree
// array too.
type FlatWeightedView struct {
	*FlatView
}

// ForEachNeighborW applies fn to u's (neighbor, weight) pairs in
// increasing neighbor order until fn returns false.
func (f FlatWeightedView) ForEachNeighborW(u uint32, fn func(w uint32, wt float32) bool) {
	if wg, ok := f.views[f.part.Owner(u)].(ligra.WeightedGraph); ok {
		wg.ForEachNeighborW(u, fn)
	}
}

// Stitch assembles the global flat view of a version vector from per-shard
// views — the remote cluster client's stitcher. moved[s] reports whether
// shard s's view differs from the one behind base, a previously stitched
// view: unmoved shards keep their stretch of base's degree array (copied
// wholesale, a memmove) and only moved shards refill theirs — a contiguous
// copy of the owned range under a RangePartitioner, an owner-tested
// parallel scatter otherwise. With no usable base (nil, not a stitched
// view, another width) or a nil moved, every shard counts as moved: the
// full O(n) stitch. Ids a shard never saw keep degree 0, matching the
// unsharded flat view's totality, and base is never mutated. Views must
// answer as complete per-shard snapshots (Order, NumEdges, Degree,
// ForEachNeighbor over owned vertices); the result is a FlatWeightedView
// when every view satisfies ligra.WeightedGraph.
func Stitch(part Partitioner, base ligra.Graph, views []ligra.Graph, moved []bool) ligra.Graph {
	order := 0
	var m uint64
	// Per-shard dense degree arrays, nil when a shard has no flat view
	// (engine flatten disabled): those fall back to Degree calls.
	sdegs := make([][]int32, len(views))
	for s, v := range views {
		if o := v.Order(); o > order {
			order = o
		}
		m += v.NumEdges()
		if fg, ok := v.(ligra.FlatGraph); ok {
			sdegs[s] = fg.Degrees()
		}
	}
	degs := make([]int32, order)
	if bv := flatViewOf(base); bv != nil && len(bv.views) == len(views) && moved != nil {
		copy(degs, bv.degs) // ids beyond the base order stay 0 until refilled
	} else {
		moved = nil
	}
	if rp, ok := part.(RangePartitioner); ok {
		for s, v := range views {
			if moved != nil && !moved[s] {
				continue
			}
			lo, hi := rp.Range(s)
			hi = min(hi, uint64(order))
			if lo >= hi {
				continue
			}
			if sd := sdegs[s]; sd != nil {
				// The shard may have shrunk below the copied base: whatever
				// its array no longer covers is stale, zero it.
				end := min(hi, uint64(len(sd)))
				if end > lo {
					copy(degs[lo:end], sd[lo:end])
				}
				clear(degs[max(lo, end):hi])
				continue
			}
			for u := lo; u < hi; u++ {
				degs[u] = int32(v.Degree(uint32(u)))
			}
		}
	} else {
		parallel.ForGrain(order, 1024, func(u int) {
			s := part.Owner(uint32(u))
			switch sd := sdegs[s]; {
			case moved != nil && !moved[s]:
			case sd == nil:
				degs[u] = int32(views[s].Degree(uint32(u)))
			case u < len(sd):
				degs[u] = sd[u]
			default:
				degs[u] = 0
			}
		})
	}
	fv := &FlatView{part: part, views: views, degs: degs, order: order, m: m}
	for _, v := range views {
		if _, ok := v.(ligra.WeightedGraph); !ok {
			return fv
		}
	}
	return FlatWeightedView{fv}
}

// flatViewOf returns the stitched FlatView behind g, or nil when g is not a
// stitched view.
func flatViewOf(g ligra.Graph) *FlatView {
	switch f := g.(type) {
	case *FlatView:
		return f
	case FlatWeightedView:
		return f.FlatView
	}
	return nil
}
