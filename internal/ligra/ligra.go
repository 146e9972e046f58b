// Package ligra implements the Ligra processing interface the paper extends
// (§2, §5.1): vertexSubsets, vertexMap and a direction-optimizing edgeMap.
// The primitives are written against a minimal Graph interface so the exact
// same algorithm code runs over Aspen snapshots, Aspen flat snapshots and
// every baseline engine in this repository — mirroring how the paper runs
// one algorithm suite over multiple systems.
//
// Graphs are treated as symmetric (the paper symmetrizes all inputs), so a
// vertex's neighbor list serves as both its out- and in-edges.
package ligra

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// Graph is the minimal traversal interface. Order is the size of the
// vertex-id space (max id + 1); algorithm state arrays are indexed by id.
type Graph interface {
	Order() int
	NumEdges() uint64
	Degree(u uint32) int
	// ForEachNeighbor applies f to u's neighbors until f returns false.
	ForEachNeighbor(u uint32, f func(v uint32) bool)
}

// ParallelNeighborGraph is an optional capability: engines whose adjacency
// structure supports intra-vertex parallelism (Aspen's edge trees) implement
// it and EdgeMap fans out over high-degree vertices. Linked-list engines
// like Stinger structurally cannot (paper §7.5), which is one source of
// Aspen's traversal advantage on skewed graphs.
type ParallelNeighborGraph interface {
	Graph
	// ForEachNeighborPar applies f to every neighbor of u, possibly in
	// parallel; f must be safe for concurrent use.
	ForEachNeighborPar(u uint32, f func(v uint32))
}

// FlatGraph is the §5.1 flat-snapshot capability: engines backed by a dense
// id-indexed view (aspen.FlatSnapshot and friends) expose their degree
// array, and EdgeMap routes both directions through it — O(1) degree access
// without an interface call per vertex, and exact (not estimated)
// work-based granularity in the parallel scheduler, since block boundaries
// can be placed on real degree prefix sums.
type FlatGraph interface {
	Graph
	// Degrees returns the id-indexed degree array, length Order(). Callers
	// must treat it as read-only.
	Degrees() []int32
}

// parDegreeThreshold is the degree above which sparse EdgeMap uses
// intra-vertex parallelism when available.
const parDegreeThreshold = 1 << 12

// VertexSubset is a set of vertex ids with dual sparse/dense representation.
type VertexSubset struct {
	n      int
	sparse []uint32
	dense  []bool
	count  int
	isDen  bool
	// idx lazily caches a sorted copy of sparse for O(log |s|) Contains.
	// It is a pointer so every value copy of the subset shares one index.
	idx *sparseIndex
}

// sparseIndex is the lazily-built sorted membership index of a sparse
// subset. The build happens at most once (sync.Once) on first Contains.
type sparseIndex struct {
	once   sync.Once
	sorted []uint32
}

// FromVertex returns the singleton subset {v} in a universe of size n.
func FromVertex(n int, v uint32) VertexSubset {
	return VertexSubset{n: n, sparse: []uint32{v}, count: 1, idx: &sparseIndex{}}
}

// FromSparse wraps a list of distinct vertex ids.
func FromSparse(n int, ids []uint32) VertexSubset {
	return VertexSubset{n: n, sparse: ids, count: len(ids), idx: &sparseIndex{}}
}

// FromDense wraps a dense membership array; count must equal the number of
// true entries.
func FromDense(flags []bool, count int) VertexSubset {
	return VertexSubset{n: len(flags), dense: flags, count: count, isDen: true}
}

// Empty returns the empty subset in a universe of size n.
func Empty(n int) VertexSubset { return VertexSubset{n: n} }

// Size returns the number of vertices in the subset.
func (s VertexSubset) Size() int { return s.count }

// IsEmpty reports whether the subset is empty.
func (s VertexSubset) IsEmpty() bool { return s.count == 0 }

// Universe returns the universe size n.
func (s VertexSubset) Universe() int { return s.n }

// IsDense reports the current representation.
func (s VertexSubset) IsDense() bool { return s.isDen }

// Contains reports membership. O(1) for dense subsets. Sparse subsets pay a
// one-time O(|s| log |s|) build of a sorted index (shared by all copies of
// the subset, built on first call) and O(log |s|) per lookup afterwards —
// replacing the old O(|s|) linear scan per call.
func (s VertexSubset) Contains(v uint32) bool {
	if s.isDen {
		return int(v) < len(s.dense) && s.dense[v]
	}
	if len(s.sparse) == 0 {
		return false
	}
	if s.idx == nil {
		// Zero-value subsets never went through a constructor; fall back to
		// the scan rather than racing to attach an index to a shared copy.
		return slices.Contains(s.sparse, v)
	}
	s.idx.once.Do(func() {
		if slices.IsSorted(s.sparse) {
			s.idx.sorted = s.sparse
			return
		}
		sorted := slices.Clone(s.sparse)
		parallel.SortUint32(sorted)
		s.idx.sorted = sorted
	})
	_, ok := slices.BinarySearch(s.idx.sorted, v)
	return ok
}

// ToSparse returns the subset in sparse form, ids increasing.
func (s VertexSubset) ToSparse() VertexSubset {
	if !s.isDen {
		return s
	}
	ids := parallel.PackIndices(s.n, func(i int) bool { return s.dense[i] })
	return FromSparse(s.n, ids)
}

// ToDense returns the subset in dense form.
func (s VertexSubset) ToDense() VertexSubset {
	if s.isDen {
		return s
	}
	flags := make([]bool, s.n)
	parallel.For(len(s.sparse), func(i int) { flags[s.sparse[i]] = true })
	return VertexSubset{n: s.n, dense: flags, count: s.count, isDen: true}
}

// ForEach applies f to each member (sparse order or id order).
func (s VertexSubset) ForEach(f func(v uint32)) {
	if s.isDen {
		for v, in := range s.dense {
			if in {
				f(uint32(v))
			}
		}
		return
	}
	for _, v := range s.sparse {
		f(v)
	}
}

// Sparse returns the member ids (converting if needed).
func (s VertexSubset) Sparse() []uint32 { return s.ToSparse().sparse }

// VertexMap applies f to each member of s in parallel.
func VertexMap(s VertexSubset, f func(v uint32)) {
	if s.isDen {
		parallel.For(s.n, func(i int) {
			if s.dense[i] {
				f(uint32(i))
			}
		})
		return
	}
	parallel.ForGrain(len(s.sparse), 128, func(i int) { f(s.sparse[i]) })
}

// VertexFilter returns the members of s satisfying pred.
func VertexFilter(s VertexSubset, pred func(v uint32) bool) VertexSubset {
	sp := s.ToSparse()
	kept := parallel.FilterUint32(sp.sparse, pred)
	return FromSparse(s.n, kept)
}

// EdgeMapOpts tunes EdgeMap.
type EdgeMapOpts struct {
	// NoDense disables direction optimization (used for the fair
	// comparisons against systems without it, Table 11).
	NoDense bool
	// DenseThresholdDiv is the denominator d of the |U| + deg(U) > m/d
	// density test; 0 means the Ligra default of 20.
	DenseThresholdDiv uint64
}

// EdgeMap applies F over edges (u, v) with u in subset U and C(v) true, and
// returns the subset of targets v for which F returned true (§2). F must be
// safe for concurrent calls and, in sparse mode, should claim each target
// atomically (e.g. with a CAS) if it must fire once per vertex — exactly the
// Ligra contract. Direction optimization (§5.1) picks a dense, in-neighbor
// oriented traversal when the frontier is large; there C(v) is checked before
// v's scan and again after each application of F to v, which is the only
// thing that may change it. C must be free of side effects: the dense
// direction may also evaluate it up to one scan block ahead, to choose whose
// adjacency to warm (see Scan) — an answer it does not act on, the check
// directly before the scan is still made.
func EdgeMap(g Graph, u VertexSubset, f func(src, dst uint32) bool, c func(v uint32) bool, opts EdgeMapOpts) VertexSubset {
	png, hasPar := g.(ParallelNeighborGraph)
	return edgeMap(g, u, c, opts,
		func(b *block, in []bool) func(v uint32) {
			visit := func(s uint32) bool {
				if !in[s] {
					return true
				}
				if f(s, b.cur) {
					b.claim()
				}
				return c(b.cur)
			}
			return func(v uint32) { b.cur = v; g.ForEachNeighbor(v, visit) }
		},
		func(b *block) func(s uint32) {
			visit := func(v uint32) bool {
				if c(v) && f(b.cur, v) {
					b.out = append(b.out, v)
				}
				return true
			}
			return func(s uint32) {
				b.cur = s
				if hasPar && g.Degree(s) >= parDegreeThreshold {
					// High-degree vertex: fan out within its edge tree and
					// collect targets under a mutex (rare path; the
					// threshold keeps it off the common case).
					var mu sync.Mutex
					png.ForEachNeighborPar(s, func(v uint32) {
						if c(v) && f(s, v) {
							mu.Lock()
							b.out = append(b.out, v)
							mu.Unlock()
						}
					})
					return
				}
				g.ForEachNeighbor(s, visit)
			}
		})
}

// block is the state one parallel block of an EdgeMap shares with its
// neighbor callback. The callback is built once per block and reads the
// vertex being scanned from cur, so scanning a vertex allocates nothing — a
// closure literal capturing the loop vertex would escape through the
// ForEachNeighbor interface call and cost one heap object per vertex. The
// block's Scan rides in the same object for the same reason.
type block struct {
	Scan
	cur     uint32   // vertex whose neighbor list is being scanned
	out     []uint32 // sparse direction: targets claimed by this block
	dense   []bool   // dense direction: the round's output flags, shared by all blocks
	claimed int      // dense direction: flags this block set
}

// claim adds cur to the dense direction's output; F may claim it again.
func (b *block) claim() {
	if !b.dense[b.cur] {
		b.dense[b.cur] = true
		b.claimed++
	}
}

// edgeMap is the direction-optimizing core under EdgeMap and
// WeightedEdgeMap, which differ only in the neighbor callback's signature.
// pull and push build one block's scan function over b, which records the
// vertex it is given in b.cur for its neighbor callback to read: pull(b, in)
// scans the in-neighbors of b.cur, calling b.claim when a member of in claims
// it and consulting C(b.cur) after each application of F; push(b) scans the
// out-neighbors of b.cur, appending the targets it claims to b.out.
func edgeMap(g Graph, u VertexSubset, c func(v uint32) bool, opts EdgeMapOpts,
	pull func(b *block, in []bool) func(v uint32), push func(b *block) func(s uint32)) VertexSubset {
	if u.IsEmpty() {
		return Empty(u.n)
	}
	sc, degs := NewScan(g), flatDegrees(g)
	div := opts.DenseThresholdDiv
	if div == 0 {
		div = 20
	}
	threshold := g.NumEdges() / div
	if u.isDen {
		// A dense frontier is summed in place: packing it to sparse first
		// would cost more than the round it is deciding about.
		if !opts.NoDense && uint64(u.count)+denseDegreeSum(g, degs, u.dense) > threshold {
			return edgeMapDense(g, sc, degs, u, c, pull)
		}
		u = u.ToSparse()
	}
	wp := workPool.Get().(*[]uint64)
	defer workPool.Put(wp)
	total := frontierWork(g, degs, u.sparse, wp)
	if !opts.NoDense && total > threshold {
		return edgeMapDense(g, sc, degs, u.ToDense(), c, pull)
	}
	return edgeMapSparse(sc, u, *wp, total, push)
}

// flatDegrees returns g's id-indexed degree array when g is a FlatGraph
// (every FlatWeightedGraph is one), else nil.
func flatDegrees(g Graph) []int32 {
	if fg, ok := g.(FlatGraph); ok {
		return fg.Degrees()
	}
	return nil
}

// degree is Degree(v) through the flat array when there is one — no
// interface call per vertex.
func degree(g Graph, degs []int32, v uint32) uint64 {
	if degs == nil {
		return uint64(g.Degree(v))
	}
	if int(v) < len(degs) {
		return uint64(degs[v])
	}
	return 0
}

// denseDegreeSum sums the degrees of the members of a dense subset.
func denseDegreeSum(g Graph, degs []int32, in []bool) uint64 {
	var total atomic.Uint64
	parallel.Range(len(in), 4096, func(lo, hi int) {
		var sum uint64
		for i := lo; i < hi; i++ {
			if in[i] {
				sum += degree(g, degs, uint32(i))
			}
		}
		total.Add(sum)
	})
	return total.Load()
}

// workPool recycles frontierWork's prefix-sum scratch (pointers pooled so
// Put does not allocate).
var workPool = sync.Pool{New: func() any { b := make([]uint64, 0, 4096); return &b }}

// frontierWork fills *wp with the exclusive prefix sums of the per-vertex
// cost of the frontier src (degree + 1: a zero-degree vertex still costs the
// visit) and returns the total, which is exactly the |U| + deg(U) of the
// density test. The sparse direction reuses the sums twice more: to cut the
// frontier into equal-work blocks and to give every block its own slot
// range in the shared output array.
func frontierWork(g Graph, degs []int32, src []uint32, wp *[]uint64) uint64 {
	work := *wp
	if cap(work) < len(src) {
		work = make([]uint64, len(src))
	}
	work = work[:len(src)]
	*wp = work
	parallel.Range(len(src), 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			work[i] = degree(g, degs, src[i]) + 1
		}
	})
	// One add per source, against at least a neighbor-list dispatch per
	// source in the round itself: not worth a parallel scan's two spawns.
	var total uint64
	for i, w := range work {
		work[i], total = total, total+w
	}
	return total
}

// frontierBlocks cuts a frontier with exclusive work prefix sums work and
// total work total into up to maxBlocks contiguous ranges of about equal
// work, so one block of hubs does not serialize the map while equal-count
// blocks of leaves sit idle. Returns the block boundary indexes (len =
// blocks + 1).
func frontierBlocks(work []uint64, total uint64, maxBlocks int) []int {
	nb := min(maxBlocks, len(work))
	if nb <= 0 {
		return nil
	}
	bounds := make([]int, nb+1)
	bounds[nb] = len(work)
	for b := 1; b < nb; b++ {
		target := total / uint64(nb) * uint64(b)
		bounds[b] = sort.Search(len(work), func(i int) bool { return work[i] >= target })
	}
	return bounds
}

// workBefore is the work of the frontier's first i vertices; a block
// boundary can sit at len(work), where the prefix array has no entry.
func workBefore(work []uint64, total uint64, i int) uint64 {
	if i < len(work) {
		return work[i]
	}
	return total
}

// sparseBlockWork is the least work (sources plus out-edges) worth a block
// of its own in the sparse direction: the few-vertex frontiers at the head
// and tail of a traversal run as one block on the calling goroutine.
const sparseBlockWork = 2048

// edgeMapSparse maps over the out-edges of the frontier, one scan function
// per block. A block's claims go straight into its slot range of one shared
// output array — the range starts at the block's work prefix and is as long
// as its degree sum, which bounds what its sources can claim — and the
// ranges are closed up afterwards, so a round allocates one array instead of
// growing a buffer per block.
func edgeMapSparse(sc Scan, u VertexSubset, work []uint64, total uint64, push func(b *block) func(s uint32)) VertexSubset {
	src := u.sparse
	bounds := frontierBlocks(work, total, min(parallel.Procs*4, int(total/sparseBlockWork)+1))
	nb := len(bounds) - 1
	out := make([]uint32, total)
	claimed := make([][]uint32, nb)
	parallel.Range(nb, 1, func(lo, hi int) {
		b := &block{Scan: sc}
		scan := push(b)
		for k := lo; k < hi; k++ {
			first := workBefore(work, total, bounds[k])
			b.out = out[first:first:workBefore(work, total, bounds[k+1])]
			b.List(src[bounds[k]:bounds[k+1]], scan)
			claimed[k] = b.out
		}
	})
	// Every range starts at or after the end of the packed prefix, so the
	// overlapping appends move data only downwards.
	out = out[:0]
	for _, c := range claimed {
		out = append(out, c...)
	}
	return FromSparse(u.n, out)
}

// denseGrainWork is the edge-pull budget one dense-direction block targets:
// enough work (tens of microseconds) that the block's own set-up — three
// small heap objects for its scan function and one cursor claim — vanishes,
// little enough that a round over any graph worth parallelising still has
// blocks to balance.
const denseGrainWork = 32768

// denseGrainOverride, when positive, forces a fixed dense grain — a test
// hook so the EdgeMap bench can compare the adaptive choice against a
// fixed 256 without forking the mapper.
var denseGrainOverride int

// denseGrain picks the dense-direction block size from m/n.
// The dense scan visits every id slot and pulls ~deg(v) edges from the
// live ones, so expected work per slot is about the average degree: blocks
// of denseGrainWork/(m/n + 1) slots each cost roughly denseGrainWork edge
// pulls, making blocks fine on dense graphs (load balance across heavy
// regions of the id space) and coarse on sparse id spaces (fewer
// scheduling handoffs per scan).
func denseGrain(g Graph, n int) int {
	if denseGrainOverride > 0 {
		return denseGrainOverride
	}
	avg := float64(g.NumEdges()) / float64(max(n, 1))
	return min(max(int(denseGrainWork/(avg+1)), 16), 4096)
}

// edgeMapDense scans all vertices v with C(v) true and pulls from their
// in-neighbors (== neighbors on symmetric graphs), stopping early once C(v)
// turns false. Each block counts its own claims and publishes the count
// once.
func edgeMapDense(g Graph, sc Scan, degs []int32, u VertexSubset, c func(v uint32) bool, pull func(b *block, in []bool) func(v uint32)) VertexSubset {
	out := make([]bool, u.n)
	var count atomic.Int64
	parallel.Range(u.n, denseGrain(g, u.n), func(lo, hi int) {
		b := &block{Scan: sc, dense: out}
		// The O(1) degree probe comes first: a vertex with no neighbors
		// cannot pull anything, so it is dropped before paying the condition
		// and the edge-tree dispatch.
		b.scanRange(lo, hi, degs, c, pull(b, u.dense))
		count.Add(int64(b.claimed))
	})
	return FromDense(out, int(count.Load()))
}
