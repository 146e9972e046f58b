package aspen

import (
	"unsafe"

	"repro/internal/ctree"
	"repro/internal/parallel"
)

// A flat view is a page table over the graph's own vertex-index pages
// (pages.go): pages[p] is the page of ids [p<<pageBits, (p+1)<<pageBits), the
// very page the vertex index stores, so building or patching a view copies
// no edge-tree handle — only the page pointers and the degrees. The degree
// array stays one contiguous id-indexed slice, which ligra's flat routing
// consumes for work-based frontier partitioning. Pages are immutable and
// belong to the graph; a view owns its table and degrees only, and any
// number of views and versions share a page. The view carries the graph's
// tree class once and rebuilds an edge tree from a slot's handle on demand.

// FlatView is a dense, id-indexed view of one immutable graph version: one
// edge C-tree handle per vertex id plus its degree. It removes the O(log n)
// vertex-tree lookup from every edgeMap access — the §5.1 flat-snapshot
// optimization that makes global algorithms on Aspen competitive with
// static CSR — generically over the edge payload V, so the weighted graph
// gets the same fast path as the unweighted one.
//
// A flat view is tied to exactly the snapshot it was built from. Snapshots
// are purely functional: InsertEdges/DeleteEdges return NEW graphs and
// never disturb the one the view indexes, so the view can never be
// "invalidated" — but it also never sees later updates. Build a new view
// per version (or let stream.Tx.Flat cache one per version), or derive it
// from the previous version's view with PatchFlatSnapshot in O(batch);
// Current reports whether a view still matches a given snapshot. Degree and
// ForEachNeighbor are total: ids outside the id space (or absent vertices)
// yield degree 0 and an empty neighbor iteration rather than a panic.
//
// The slots are the graph's own pages, aliased (see above); the degree
// array is copied per view, a pure memmove that is two orders of magnitude
// cheaper than rebuilding it from tree traversals. Views are immutable once
// returned, so any number of concurrent readers share them.
type FlatView[V ctree.Value] struct {
	cls      ctree.Class[V]
	pages    []*page[V]
	degrees  []int32
	order    int
	numEdges uint64
	root     *vnode[V]      // identity of the snapshot the view was built from
	gate     *parallel.Gate // nil: Warm never waits (see SetGate)
}

// FlatSnapshot is the id-only flat view (the paper's original §5.1
// structure). It satisfies ligra.Graph, ligra.ParallelNeighborGraph and
// ligra.FlatGraph; FlatWeightedSnapshot, the flat view of a WeightedGraph,
// additionally satisfies ligra.WeightedGraph and ligra.FlatWeightedGraph, so
// weighted kernels (SSSP) skip the vertex-tree lookups too.
type (
	FlatSnapshot         = FlatView[struct{}]
	FlatWeightedSnapshot = FlatView[float32]
)

// newFlatView allocates the view of g with an empty page table (one entry
// per pageSize ids of its id space) and a zeroed degree array.
func newFlatView[V ctree.Value](g GraphOf[V]) *FlatView[V] {
	order := g.Order()
	return &FlatView[V]{
		cls:      g.cls,
		pages:    make([]*page[V], (order+pageMask)>>pageBits),
		degrees:  make([]int32, order),
		order:    order,
		numEdges: g.NumEdges(),
		root:     g.vt,
	}
}

// setPage points table entry p at pg (nil: no vertex there) and copies its
// degrees; an entry past the view's id space is ignored. It always returns
// true, so it serves as a walk callback.
func (fv *FlatView[V]) setPage(p uint32, pg *page[V]) bool {
	if int(p) >= len(fv.pages) {
		return true
	}
	fv.pages[p] = pg
	lo := int(p) << pageBits
	degs := fv.degrees[lo:min(lo+pageSize, fv.order)]
	for s := range degs {
		degs[s] = 0
		if pg != nil {
			degs[s] = max(pg.deg[s], 0)
		}
	}
	return true
}

// BuildFlatSnapshot materializes the flat view of g with an indexed parallel
// walk of its vertex index: the index's in-order ranks are partitioned into
// per-worker ranges and each worker walks its range with one rank-pruned
// descent (pftree.ForEachRankRange), pointing the table at each page and
// copying its degrees — O(n) work, O(n/P + log n) depth, as §5.1 specifies,
// and no edge tree is read. Safe to run concurrently with updates: it only
// reads the persistent version.
func BuildFlatSnapshot[V ctree.Value](g GraphOf[V]) *FlatView[V] {
	ops, vt := g.table(), g.vt
	fv := newFlatView(g)
	n := vt.Size()
	nb := min(parallel.Procs*4, n)
	if parallel.Procs <= 1 || nb <= 1 {
		ops.ForEachRankRange(vt, 0, n, fv.setPage)
		return fv
	}
	sz := (n + nb - 1) / nb
	parallel.ForGrain(nb, 1, func(b int) {
		lo, hi := b*sz, (b+1)*sz
		if hi > n {
			hi = n
		}
		if lo < hi {
			ops.ForEachRankRange(vt, lo, hi, fv.setPage)
		}
	})
	return fv
}

// SetGate makes Warm, the per-block yield point of every kernel scan, wait
// while gate is held: an engine holds its gate across each apply, so the
// kernels reading its views give the commit their cores at the next block
// boundary. Set it once on a freshly built view, before any reader shares
// it; PatchFlatSnapshot carries prev's gate forward.
func (fv *FlatView[V]) SetGate(gate *parallel.Gate) { fv.gate = gate }

// PatchFlatSnapshot returns the flat view of g derived from prev, a view of
// an earlier (or later — the diff is two-sided) version of the same graph
// lineage, paying O(diff) work instead of an O(n) rebuild: the page table
// and degree array are copied wholesale (two memmoves), and the diff of the
// two vertex indexes (pftree.Diff, pruned by pointer sharing) re-points
// exactly the pages that changed and copies their degrees. No page is
// copied. prev is never mutated — it and the result serve concurrent
// readers of their respective versions. A nil prev falls back to a full
// build; a prev already current for g is returned as-is. The result is
// equivalent to BuildFlatSnapshot(g) in every observable way, and it waits
// on prev's gate.
func PatchFlatSnapshot[V ctree.Value](prev *FlatView[V], g GraphOf[V]) *FlatView[V] {
	if prev == nil {
		return BuildFlatSnapshot(g)
	}
	if prev.Current(g) {
		return prev
	}
	fv := newFlatView(g)
	fv.gate = prev.gate
	copy(fv.pages, prev.pages) // entries past prev's space start nil
	copy(fv.degrees, prev.degrees)
	// No page of g holds a vertex past its order, so a page the diff skips
	// needs no clipping, and one past a shrunk space is dropped by setPage.
	g.table().Diff(prev.root, g.vt,
		func(a, b *page[V]) bool { return a == b },
		func(p uint32, _ DiffKind, _, pg *page[V]) bool { return fv.setPage(p, pg) })
	return fv
}

// BuildFlatWeightedSnapshot is BuildFlatSnapshot on a weighted graph.
func BuildFlatWeightedSnapshot(g WeightedGraph) *FlatWeightedSnapshot { return BuildFlatSnapshot(g) }

// PatchFlatWeightedSnapshot is PatchFlatSnapshot on a weighted graph.
func PatchFlatWeightedSnapshot(prev *FlatWeightedSnapshot, g WeightedGraph) *FlatWeightedSnapshot {
	return PatchFlatSnapshot(prev, g)
}

// Order returns the vertex-id space size.
func (fv *FlatView[V]) Order() int { return fv.order }

// NumEdges returns the number of directed edges of the underlying version.
func (fv *FlatView[V]) NumEdges() uint64 { return fv.numEdges }

// Degree returns the degree of u in O(1). Total: out-of-range or absent ids
// have degree 0.
func (fv *FlatView[V]) Degree(u uint32) int {
	if int(u) >= fv.order {
		return 0
	}
	return int(fv.degrees[u])
}

// Degrees exposes the id-indexed degree array (length Order) — the
// ligra.FlatGraph capability. Callers must not mutate it; schedulers use it
// for exact work-based partitioning.
func (fv *FlatView[V]) Degrees() []int32 { return fv.degrees }

// page returns u's page and slot; the nil page means an id range without
// vertices.
func (fv *FlatView[V]) page(u uint32) (*page[V], uint32) {
	return fv.pages[u>>pageBits], u & pageMask
}

// HasVertex reports whether u is a vertex of the underlying version.
func (fv *FlatView[V]) HasVertex(u uint32) bool {
	if int(u) >= fv.order {
		return false
	}
	pg, s := fv.page(u)
	return pg != nil && pg.deg[s] >= 0
}

// ForEachNeighbor applies f to u's neighbors in increasing order until f
// returns false. O(1) access to the edge tree; total on out-of-range ids.
// The first two neighbors come from the page (page.heads), so a callback
// that stops by then never reaches the tree; a third is read from the tree,
// past the two it skips.
func (fv *FlatView[V]) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	if int(u) >= fv.order {
		return
	}
	d := fv.degrees[u] // 0 for an absent vertex, whose page may be nil
	if d == 0 {
		return
	}
	pg, s := fv.page(u)
	h := &pg.heads[s]
	if !f(h[0]) || d == 1 || !f(h[1]) || d == 2 {
		return
	}
	fv.cls.Tree(pg.trees[s]).ForEachFrom(len(h), f)
}

// Warm brings the adjacency heads of ids near the core — the ligra.Warmer
// capability. For each id that is in range and present it loads the first
// word ForEachNeighbor(id) reads from the heap, the slot's first head id,
// and returns the sum of those words, which only exists to keep the loads
// live. The loop's iterations do not depend on one another, so their cache
// misses overlap: one round trip per block instead of one per scanned
// vertex. It decodes nothing, stores nothing and is total: out-of-range,
// absent and degree-0 ids add 0. It first waits while the view's gate is
// held (SetGate).
func (fv *FlatView[V]) Warm(ids []uint32) (sum uint32) {
	fv.gate.Wait()
	for _, u := range ids {
		if int(u) >= fv.order {
			continue
		}
		// No presence test: the heads of an absent or degree-0 slot are 0,
		// and skipping the test skips the degree array's cache line.
		if pg, s := fv.page(u); pg != nil {
			sum += pg.heads[s][0]
		}
	}
	return sum
}

// tree returns u's edge tree and whether u is a vertex; u must be in range.
func (fv *FlatView[V]) tree(u uint32) (ctree.Tree[V], bool) {
	pg, s := fv.page(u)
	return pg.slot(fv.cls, s)
}

// ForEachNeighborPar applies f to u's neighbors with edge-tree parallelism
// (unordered).
func (fv *FlatView[V]) ForEachNeighborPar(u uint32, f func(v uint32)) {
	if int(u) >= fv.order {
		return
	}
	if et, ok := fv.tree(u); ok {
		et.ForEachPar(f)
	}
}

// ForEachNeighborW applies f to u's (neighbor, payload) pairs in increasing
// neighbor order until f returns false — with V = float32, the
// ligra.WeightedGraph capability.
func (fv *FlatView[V]) ForEachNeighborW(u uint32, f func(v uint32, w V) bool) {
	if int(u) >= fv.order {
		return
	}
	if et, ok := fv.tree(u); ok {
		et.ForEachKV(f)
	}
}

// EdgeTree returns u's edge tree in O(1).
func (fv *FlatView[V]) EdgeTree(u uint32) (ctree.Tree[V], bool) {
	if int(u) >= fv.order {
		return ctree.Tree[V]{}, false
	}
	return fv.tree(u)
}

// MemoryBytes returns the size of the storage this view owns: its page
// table (one pointer per pageSize ids) and its degree array (4 bytes per
// id). The pages themselves belong to the graph's vertex index and are
// reported by SharedMemoryBytes.
func (fv *FlatView[V]) MemoryBytes() uint64 {
	return uint64(len(fv.pages))*8 + uint64(len(fv.degrees))*4
}

// SharedMemoryBytes returns the size of the vertex-index pages this view
// aliases: every page it points at, shared with the graph and with every
// other view of a version that holds the page.
func (fv *FlatView[V]) SharedMemoryBytes() uint64 {
	n := 0
	for _, pg := range fv.pages {
		if pg != nil {
			n++
		}
	}
	return uint64(n) * uint64(unsafe.Sizeof(page[V]{}))
}

// Current reports whether fv still reflects g — i.e. it was built from g's
// exact immutable snapshot (pointer identity of the vertex-tree root:
// functional updates always produce a fresh root). A false result means g is
// a different (typically newer) version and the view, while still safe to
// use, answers queries about the version it was built from. Compiled with
// -tags aspendebug, MustCurrent turns a mismatch into a panic.
func (fv *FlatView[V]) Current(g GraphOf[V]) bool { return fv.root == g.vt }

// MustCurrent panics when fv was not built from g's exact snapshot. The
// check runs only under the aspendebug build tag; release builds compile it
// to nothing, so hot paths may call it unconditionally.
func (fv *FlatView[V]) MustCurrent(g GraphOf[V]) {
	if flatDebug && !fv.Current(g) {
		panic("aspen: flat snapshot is stale for this graph version")
	}
}

// Weight returns the payload of edge (u, v) in O(1) tree access.
func (fv *FlatView[V]) Weight(u, v uint32) (V, bool) {
	et, ok := fv.EdgeTree(u)
	if !ok {
		var zero V
		return zero, false
	}
	return et.Find(v)
}
