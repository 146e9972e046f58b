package aspen

import (
	"repro/internal/ctree"
	"repro/internal/parallel"
)

// Flat-view slot storage is paged so that patching a new version's view out
// of its predecessor's can copy-on-write only the pages the version diff
// touches: flatPageSize vertices per page, pages untouched by a batch are
// aliased between chained views. The batch's touched vertices are scattered
// (graph updates have no id locality), so a patch copies roughly one page
// per touched vertex no matter the page size — which makes small pages
// win: 16 slots keeps the per-touched-vertex copy under a cache line's
// worth of tree handles, while the page table that every patch must copy
// stays at 1/16th of a slot-per-id table. (One backing allocation still
// serves a full build, so build cost is unaffected.)
//
// Measured at the ledger's sizes (65 536 ids, 1 M directed edges, a patch of
// one 5 000-directed-edge batch ≈ 4 500 touched pages): 4-slot pages patch
// in 2.49 ms against 3.06 ms with 16 (2.0 → 1.2 MB copied), but every live
// view's page table grows 4× — engine.query bytes_per_edge +2.9 % — and the
// traced span_flat_patch_p50_ms falls only 3.32 → 2.96. At 1 M ids
// (BenchmarkFlatPatch) the table copy dominates: 6.6 → 6.7 ms at batch=1000,
// 31.4 → 26.6–29.5 ms at batch=10000. So 16 slots it is.
const (
	flatPageBits = 4
	flatPageSize = 1 << flatPageBits
	flatPageMask = flatPageSize - 1
)

// flatPage holds the per-vertex edge-tree handles and presence bits of one
// aligned id range [p<<flatPageBits, (p+1)<<flatPageBits).
type flatPage[V ctree.Value] struct {
	trees   [flatPageSize]ctree.Tree[V]
	present [flatPageSize]bool
}

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
// Slot storage (tree handles + presence) is paged; a patched view aliases
// every page the version diff did not touch, copying only the rest
// (owned tracks which is which, for MemoryBytes). The degree array stays
// one contiguous id-indexed slice — ligra's flat routing consumes it for
// work-based frontier partitioning — and is copied per view, a pure memmove
// that is two orders of magnitude cheaper than rebuilding it from tree
// traversals. Views are immutable once returned, so chained views can
// share pages freely across any number of concurrent readers.
type FlatView[V ctree.Value] struct {
	pages    []*flatPage[V]
	owned    []bool // owned[p]: pages[p] was allocated by this view, not aliased
	degrees  []int32
	order    int
	numEdges uint64
	root     *vnode[V] // identity of the snapshot the view was built from
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

// newFlatView allocates the view of g with an empty page table (one page
// per flatPageSize ids of its id space) and a zeroed degree array.
func newFlatView[V ctree.Value](g GraphOf[V]) *FlatView[V] {
	order := g.Order()
	np := (order + flatPageSize - 1) >> flatPageBits
	return &FlatView[V]{
		pages:    make([]*flatPage[V], np),
		owned:    make([]bool, np),
		degrees:  make([]int32, order),
		order:    order,
		numEdges: g.NumEdges(),
		root:     g.vt,
	}
}

// BuildFlatSnapshot materializes the flat view of g with an indexed parallel
// vertex-tree traversal: the tree's in-order ranks are partitioned into
// per-worker ranges and each worker walks its range with one rank-pruned
// descent (pftree.ForEachRankRange) — O(n) work, O(n/P + log n) depth, as
// §5.1 specifies. Safe to run concurrently with updates: it only reads the
// persistent version. All pages come from one backing allocation and are
// owned by the view.
func BuildFlatSnapshot[V ctree.Value](g GraphOf[V]) *FlatView[V] {
	ops, vt := g.table(), g.vt
	fv := newFlatView(g)
	backing := make([]flatPage[V], len(fv.pages))
	for i := range fv.pages {
		fv.pages[i] = &backing[i]
		fv.owned[i] = true
	}
	fill := func(u uint32, et ctree.Tree[V]) bool {
		pg := fv.pages[u>>flatPageBits]
		pg.trees[u&flatPageMask] = et
		pg.present[u&flatPageMask] = true
		fv.degrees[u] = int32(et.Size())
		return true
	}
	n := vt.Size()
	nb := parallel.Procs * 4
	if nb > n {
		nb = n
	}
	if nb <= 1 {
		ops.ForEachRankRange(vt, 0, n, fill)
		return fv
	}
	sz := (n + nb - 1) / nb
	parallel.ForGrain(nb, 1, func(b int) {
		lo, hi := b*sz, (b+1)*sz
		if hi > n {
			hi = n
		}
		if lo < hi {
			ops.ForEachRankRange(vt, lo, hi, fill)
		}
	})
	return fv
}

// PatchFlatSnapshot returns the flat view of g derived from prev, a view of
// an earlier (or later — the diff is two-sided) version of the same graph
// lineage, paying O(diff) copy-on-write work instead of an O(n) rebuild: the
// vertex-tree diff (pruned by pointer sharing) enumerates exactly the
// touched vertices, each touched page is copied once (copy-on-write) and
// every other page is aliased from prev. The degree array is copied
// wholesale (a memmove) and patched per touched vertex, keeping it
// contiguous for ligra's flat routing. prev is never mutated — it and the
// result serve concurrent readers of their respective versions. A nil prev
// falls back to a full build; a prev already current for g is returned
// as-is. The result is equivalent to BuildFlatSnapshot(g) in every
// observable way.
func PatchFlatSnapshot[V ctree.Value](prev *FlatView[V], g GraphOf[V]) *FlatView[V] {
	if prev == nil {
		return BuildFlatSnapshot(g)
	}
	if prev.Current(g) {
		return prev
	}
	fv := newFlatView(g)
	copy(fv.pages, prev.pages) // aliased until touched; nil beyond prev's space
	copy(fv.degrees, prev.degrees)
	// Copied pages come from slab allocations: a batch touches its pages in
	// ascending id order, so grabbing pages off a chunk keeps the patch at a
	// handful of allocations instead of one per touched page.
	var slab []flatPage[V]
	diffVersionsCore(g.table(), prev.root, g.vt, func(d VertexDelta[V]) bool {
		u := d.ID
		if int(u) >= fv.order {
			// A vertex removed beyond the (shrunk) id space has no slot to
			// clear; stale slots in aliased pages past order are never read
			// (every accessor bounds-checks against order first).
			return true
		}
		pi := int(u) >> flatPageBits
		if !fv.owned[pi] {
			if len(slab) == 0 {
				slab = make([]flatPage[V], 256)
			}
			pg := &slab[0]
			slab = slab[1:]
			if shared := fv.pages[pi]; shared != nil {
				*pg = *shared
			}
			fv.pages[pi], fv.owned[pi] = pg, true
		}
		pg, s := fv.pages[pi], u&flatPageMask
		if d.Kind == DiffRemoved {
			pg.trees[s], pg.present[s] = ctree.Tree[V]{}, false
			fv.degrees[u] = 0
		} else {
			pg.trees[s], pg.present[s] = d.New, true
			fv.degrees[u] = int32(d.New.Size())
		}
		return true
	})
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

// page returns u's slot page and index; the nil page means an id range no
// version ever populated.
func (fv *FlatView[V]) page(u uint32) (*flatPage[V], uint32) {
	return fv.pages[u>>flatPageBits], u & flatPageMask
}

// HasVertex reports whether u is a vertex of the underlying version.
func (fv *FlatView[V]) HasVertex(u uint32) bool {
	if int(u) >= fv.order {
		return false
	}
	pg, s := fv.page(u)
	return pg != nil && pg.present[s]
}

// ForEachNeighbor applies f to u's neighbors in increasing order until f
// returns false. O(1) access to the edge tree; total on out-of-range ids.
func (fv *FlatView[V]) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	if int(u) >= fv.order {
		return
	}
	// No presence test: an absent slot holds the zero tree, which has no
	// elements, and skipping the test skips a cache line (Warm does too).
	if pg, s := fv.page(u); pg != nil {
		pg.trees[s].ForEach(f)
	}
}

// Warm brings the adjacency heads of ids near the core — the ligra.Warmer
// capability. For each id that is in range and present it loads the first
// byte ForEachNeighbor(id) would read from the heap (ctree.Tree.Touch) and
// returns the sum of those bytes, which only exists to keep the loads live.
// The loop's iterations do not depend on one another, so their cache misses
// overlap: one round trip per block instead of one per scanned vertex. It
// decodes nothing, stores nothing and is total: out-of-range, absent and
// degree-0 ids are skipped.
func (fv *FlatView[V]) Warm(ids []uint32) (sum uint32) {
	for _, u := range ids {
		if int(u) >= fv.order {
			continue
		}
		// No presence test: an absent slot holds the zero tree, whose Touch
		// loads nothing.
		if pg, s := fv.page(u); pg != nil {
			sum += uint32(pg.trees[s].Touch())
		}
	}
	return sum
}

// ForEachNeighborPar applies f to u's neighbors with edge-tree parallelism
// (unordered).
func (fv *FlatView[V]) ForEachNeighborPar(u uint32, f func(v uint32)) {
	if int(u) >= fv.order {
		return
	}
	if pg, s := fv.page(u); pg != nil && pg.present[s] {
		pg.trees[s].ForEachPar(f)
	}
}

// ForEachNeighborW applies f to u's (neighbor, payload) pairs in increasing
// neighbor order until f returns false — with V = float32, the
// ligra.WeightedGraph capability.
func (fv *FlatView[V]) ForEachNeighborW(u uint32, f func(v uint32, w V) bool) {
	if int(u) >= fv.order {
		return
	}
	if pg, s := fv.page(u); pg != nil && pg.present[s] {
		pg.trees[s].ForEachKV(f)
	}
}

// EdgeTree returns u's edge tree in O(1).
func (fv *FlatView[V]) EdgeTree(u uint32) (ctree.Tree[V], bool) {
	if int(u) >= fv.order {
		return ctree.Tree[V]{}, false
	}
	if pg, s := fv.page(u); pg != nil && pg.present[s] {
		return pg.trees[s], true
	}
	return ctree.Tree[V]{}, false
}

// MemoryBytes returns the analytic size of the storage this view uniquely
// owns, at the Table-2 accounting of one pointer-sized slot plus one
// presence byte per id and a 4-byte degree word: the page table, the degree
// array, and every slot page the view allocated itself. Pages aliased from
// the predecessor (patching copies only the pages a batch touches) are
// charged to the view that built them and reported here by
// SharedMemoryBytes, so bytes-per-version stays honest when views chain: a
// freshly built view owns everything, a patched one owns its degree array
// plus O(batch/pageSize) pages.
func (fv *FlatView[V]) MemoryBytes() uint64 {
	owned := 0
	for _, o := range fv.owned {
		if o {
			owned++
		}
	}
	return uint64(len(fv.pages))*(8+1) + uint64(len(fv.degrees))*4 +
		uint64(owned)*flatPageSize*(8+1)
}

// SharedMemoryBytes returns the analytic size of the slot pages this view
// aliases from an ancestor view instead of owning (zero for a freshly built
// view).
func (fv *FlatView[V]) SharedMemoryBytes() uint64 {
	shared := 0
	for i, o := range fv.owned {
		if !o && fv.pages[i] != nil {
			shared++
		}
	}
	return uint64(shared) * flatPageSize * (8 + 1)
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
