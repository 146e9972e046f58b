package shard

import (
	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/parallel"
)

// View is the cross-shard tree snapshot: one pinned per-shard graph per
// entry of the version vector, served through the ligra traversal
// interfaces by dispatching every vertex access to the shard that owns it.
// Because ownership is by source vertex over the full id space, Degree and
// ForEachNeighbor answer exactly as the equivalent single-engine snapshot
// would: the owner holds u's complete adjacency and every other shard
// holds u with no out-edges (or not at all). A View is valid only while
// the transaction that produced it is open.
type View[G ligra.Graph] struct {
	part  Partitioner
	gs    []G
	order int
	m     uint64
}

// Order returns the vertex-id space size: the maximum over the pinned
// shard snapshots (destination ride-along vertices make every id reachable
// on some shard, so this equals the unsharded Order).
func (v *View[G]) Order() int { return v.order }

// NumEdges returns the directed edge count, summed over shards in O(S).
func (v *View[G]) NumEdges() uint64 { return v.m }

// Degree returns u's degree from its owning shard. O(log n_s).
func (v *View[G]) Degree(u uint32) int { return v.gs[v.part.Owner(u)].Degree(u) }

// ForEachNeighbor applies f to u's neighbors in increasing order until f
// returns false, reading the owning shard's edge tree.
func (v *View[G]) ForEachNeighbor(u uint32, f func(w uint32) bool) {
	v.gs[v.part.Owner(u)].ForEachNeighbor(u, f)
}

// ForEachNeighborPar applies f to u's neighbors with edge-tree parallelism
// when the shard snapshot supports it (aspen graphs do).
func (v *View[G]) ForEachNeighborPar(u uint32, f func(w uint32)) {
	g := v.gs[v.part.Owner(u)]
	if pg, ok := any(g).(ligra.ParallelNeighborGraph); ok {
		pg.ForEachNeighborPar(u, f)
		return
	}
	g.ForEachNeighbor(u, func(w uint32) bool { f(w); return true })
}

// WeightedView adapts the weighted cluster's tree view to
// ligra.WeightedGraph, so SSSP and friends run on sharded snapshots
// unmodified.
type WeightedView struct {
	*View[aspen.WeightedGraph]
}

// ForEachNeighborW applies f to u's (neighbor, weight) pairs in increasing
// neighbor order until f returns false.
func (v WeightedView) ForEachNeighborW(u uint32, f func(w uint32, wt float32) bool) {
	v.gs[v.part.Owner(u)].ForEachNeighborW(u, f)
}

// FlatView is the stitched §5.1 flat snapshot of a version vector: each
// shard's per-version flat view (built and cached by its engine) plus one
// global id-indexed degree array assembled from the per-shard degree
// arrays — contiguous copies under a RangePartitioner, an ownership
// scatter otherwise. The stitched array is what ligra's FlatGraph routing
// consumes: O(1) degree access and exact work-based frontier partitioning
// on degree prefix sums, now spanning all shards. Neighbor iteration
// dispatches to the owning shard's flat view in O(1).
type FlatView struct {
	part  Partitioner
	views []ligra.Graph
	warm  []ligra.Warmer // views[s] as a Warmer, nil where it is none; nil when none is
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

// FlatWeightedView is the stitched flat view of a weighted cluster; it
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

// warmFlatView and warmFlatWeightedView are the stitched views of shards
// whose own flat views have the ligra.Warmer capability (engine flat views
// do; the remote client's CSR ranges have nothing to warm, and a stitch of
// those stays a plain FlatView so kernels take ligra.Scan's plain loop).
type warmFlatView struct{ *FlatView }

type warmFlatWeightedView struct{ FlatWeightedView }

func (f warmFlatView) Warm(ids []uint32) uint32 { return f.warmRuns(ids) }

func (f warmFlatWeightedView) Warm(ids []uint32) uint32 { return f.warmRuns(ids) }

// warmRuns forwards ligra.Warmer.Warm: each run of ids with one owner goes
// to that shard's view in one call (a whole scan block, under a
// RangePartitioner), so no id scratch is needed.
func (f *FlatView) warmRuns(ids []uint32) (sum uint32) {
	for len(ids) > 0 {
		s, k := f.part.Owner(ids[0]), 1
		for k < len(ids) && f.part.Owner(ids[k]) == s {
			k++
		}
		if w := f.warm[s]; w != nil {
			sum += w.Warm(ids[:k])
		}
		ids = ids[k:]
	}
	return sum
}

// Stitch assembles the global flat view of a version vector from per-shard
// views — the one stitcher behind the in-process Tx.Flat and the remote
// cluster client. moved[s] reports whether shard s's view differs from the
// one behind base, a previously stitched view: unmoved shards keep their
// stretch of base's degree array (copied wholesale, a memmove) and only
// moved shards refill theirs — a contiguous copy of the owned range under a
// RangePartitioner, an owner-tested parallel scatter otherwise. With no
// usable base (nil, not a stitched view, another width) or a nil moved,
// every shard counts as moved: the full O(n) stitch. Ids a shard never saw
// keep degree 0, matching the unsharded flat view's totality, and base is
// never mutated. Views must answer as complete per-shard snapshots (Order,
// NumEdges, Degree, ForEachNeighbor over owned vertices); the result is a
// FlatWeightedView when every view satisfies ligra.WeightedGraph, and
// either kind forwards ligra.Warmer when some view has it.
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
	weighted := true
	for s, v := range views {
		if _, ok := v.(ligra.WeightedGraph); !ok {
			weighted = false
		}
		if w, ok := v.(ligra.Warmer); ok {
			if fv.warm == nil {
				fv.warm = make([]ligra.Warmer, len(views))
			}
			fv.warm[s] = w
		}
	}
	switch {
	case weighted && fv.warm != nil:
		return warmFlatWeightedView{FlatWeightedView{fv}}
	case weighted:
		return FlatWeightedView{fv}
	case fv.warm != nil:
		return warmFlatView{fv}
	}
	return fv
}

// stitched is promoted through every wrapper, for flatViewOf.
func (f *FlatView) stitched() *FlatView { return f }

// flatViewOf unwraps the stitched FlatView behind any of the wrappers.
func flatViewOf(g ligra.Graph) *FlatView {
	if s, ok := g.(interface{ stitched() *FlatView }); ok {
		return s.stitched()
	}
	return nil
}
