// Package aspen implements the Aspen graph-streaming framework (paper §5–§6):
// an undirected graph represented as a purely-functional vertex-tree whose
// values are C-trees of neighbor ids (a tree of compressed trees, Figure 4;
// here the vertex-tree holds pages of 16 consecutive ids, pages.go), with
// lightweight snapshots, functional batch updates, flat snapshots for
// global algorithms, and a single-writer / multi-reader versioned store that
// provides strictly serializable concurrent updates and queries. There is one
// graph type, GraphOf[V], generic over a fixed-width edge payload V that rides
// the compressed chunks next to each neighbor id: Graph is the id-only
// instantiation (V = struct{}, the paper's structure) and WeightedGraph the
// float32 one (edge weights, which the paper defers to future work in §6).
//
// All graph methods are read-only or functional: updates return a new graph
// that shares almost all structure with the old one, so existing snapshots
// are never disturbed. Use Versioned to coordinate a writer with concurrent
// readers.
package aspen

import (
	"repro/internal/ctree"
	"repro/internal/parallel"
)

// EdgeOf is a directed edge update carrying a payload of type V. Undirected
// graphs insert both directions (MakeUndirected does this). The payload comes
// first: Go pads a trailing zero-size field so that its address stays inside
// the struct, which would make EdgeOf[struct{}] 12 bytes instead of 8.
type EdgeOf[V ctree.Value] struct {
	Val      V
	Src, Dst uint32
}

// Edge is the id-only edge update; WeightedEdge carries a float32 weight.
type (
	Edge         = EdgeOf[struct{}]
	WeightedEdge = EdgeOf[float32]
)

// GraphOf is an immutable snapshot of a graph whose edges carry payloads of
// type V. The zero GraphOf uses unusable parameters; construct with NewGraphOf
// (or NewGraph, FromAdjacency, FromSnapshot). Batch updates share one
// radix-sorted fused vertex-tree pass (batch.go); duplicate updates to one
// edge resolve last-writer-wins in batch order, and re-inserting an existing
// edge overwrites its payload (the paper's interface updates weights through
// the same insertion path, §5).
type GraphOf[V ctree.Value] struct {
	cls ctree.Class[V] // of every edge tree; the pages store handles
	vt  *vnode[V]
	ops *vopsT[V] // the interned table of V, resolved at construction
}

// Graph is the id-only graph; WeightedGraph stores a float32 weight per edge.
type (
	Graph         = GraphOf[struct{}]
	WeightedGraph = GraphOf[float32]
)

// NewGraphOf returns an empty graph whose edge trees use params p.
func NewGraphOf[V ctree.Value](p ctree.Params) GraphOf[V] {
	return GraphOf[V]{cls: ctree.ClassOf[V](p), ops: vopsFor[V]()}
}

// NewGraph returns an empty id-only graph whose edge trees use params p.
func NewGraph(p ctree.Params) Graph { return NewGraphOf[struct{}](p) }

// NewWeightedGraph returns an empty weighted graph with the paper's default
// compression parameters.
func NewWeightedGraph() WeightedGraph { return NewGraphOf[float32](ctree.DefaultParams()) }

// NewWeightedGraphWith returns an empty weighted graph whose edge trees use
// params p.
func NewWeightedGraphWith(p ctree.Params) WeightedGraph { return NewGraphOf[float32](p) }

// FromAdjacency builds a graph from adjacency lists: adj[u] lists the
// neighbors of vertex u (they will be sorted and deduplicated). Every index
// of adj becomes a vertex, including isolated ones.
func FromAdjacency(p ctree.Params, adj [][]uint32) Graph {
	ids := make([]uint32, len(adj))
	for u := range ids {
		ids[u] = uint32(u)
	}
	g := NewGraph(p)
	return g.with(buildPages(g.ops, ids, func(u int) ctree.Set { return ctree.Build(p, sortedIDs(adj[u])) }))
}

// table returns g's vertex-tree operation table; only the zero graph lacks
// one and resolves it here.
func (g GraphOf[V]) table() *vopsT[V] {
	if g.ops != nil {
		return g.ops
	}
	return vopsFor[V]()
}

// with returns the version of g rooted at vt.
func (g GraphOf[V]) with(vt *vnode[V]) GraphOf[V] {
	return GraphOf[V]{cls: g.cls, vt: vt, ops: g.table()}
}

// Params returns the edge-tree parameters of g.
func (g GraphOf[V]) Params() ctree.Params { return g.cls.Params() }

// NumVertices returns the number of vertices, in O(1) via the vertex-index
// augmentation.
func (g GraphOf[V]) NumVertices() int { return int(g.vt.AugOrZero().verts) }

// NumEdges returns the number of directed edges, in O(1) via the
// vertex-index augmentation.
func (g GraphOf[V]) NumEdges() uint64 { return g.vt.AugOrZero().edges }

// Order returns the size of the vertex-id space (max id + 1); algorithm
// state arrays are indexed by vertex id.
func (g GraphOf[V]) Order() int {
	last := g.table().Last(g.vt)
	if last == nil {
		return 0
	}
	s := pageMask
	for last.Val().deg[s] < 0 { // the index keeps no page without a vertex
		s--
	}
	return int(last.Key())<<pageBits + s + 1
}

// EdgeTree returns u's edge C-tree. O(log n).
func (g GraphOf[V]) EdgeTree(u uint32) (ctree.Tree[V], bool) {
	return findVertex(g.table(), g.cls, g.vt, u)
}

// HasVertex reports whether u is a vertex of g.
func (g GraphOf[V]) HasVertex(u uint32) bool {
	_, ok := g.EdgeTree(u)
	return ok
}

// Degree returns the degree of u (0 for absent vertices). O(log n).
func (g GraphOf[V]) Degree(u uint32) int {
	pg, _ := g.table().Find(g.vt, u>>pageBits)
	if pg == nil {
		return 0
	}
	return int(max(pg.deg[u&pageMask], 0))
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g GraphOf[V]) HasEdge(u, v uint32) bool {
	et, ok := g.EdgeTree(u)
	return ok && et.Contains(v)
}

// Weight returns the payload of edge (u, v): the weight, on a WeightedGraph.
func (g GraphOf[V]) Weight(u, v uint32) (V, bool) {
	et, ok := g.EdgeTree(u)
	if !ok {
		var zero V
		return zero, false
	}
	return et.Find(v)
}

// ForEachNeighbor applies f to u's neighbors in increasing order until f
// returns false (payloads dropped).
func (g GraphOf[V]) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	if et, ok := g.EdgeTree(u); ok {
		et.ForEach(f)
	}
}

// ForEachNeighborW applies f to u's (neighbor, payload) pairs in increasing
// neighbor order until f returns false. With V = float32 this is the
// ligra.WeightedGraph capability; other payloads do not match it.
func (g GraphOf[V]) ForEachNeighborW(u uint32, f func(v uint32, w V) bool) {
	if et, ok := g.EdgeTree(u); ok {
		et.ForEachKV(f)
	}
}

// ForEachNeighborPar applies f to u's neighbors with edge-tree parallelism
// (unordered). Tree-structured adjacency makes intra-vertex parallelism
// possible — the capability §7.5 credits for Aspen's fast traversals of
// high-degree vertices.
func (g GraphOf[V]) ForEachNeighborPar(u uint32, f func(v uint32)) {
	if et, ok := g.EdgeTree(u); ok {
		et.ForEachPar(f)
	}
}

// ForEachVertex applies f to every (vertex, edge-tree) pair in id order
// until f returns false.
func (g GraphOf[V]) ForEachVertex(f func(u uint32, et ctree.Tree[V]) bool) {
	forEachVertex(g.table(), g.cls, g.vt, f)
}

// sortEdgeBatch encodes, sorts and dedupes a batch of directed edges by id,
// returning packed (src<<32 | dst) keys; payloads are ignored. The parallel
// LSD radix sort makes this O(k) work per populated key byte.
func sortEdgeBatch[V ctree.Value](edges []EdgeOf[V]) []uint64 {
	packed := make([]uint64, len(edges))
	parallel.For(len(edges), func(i int) {
		packed[i] = uint64(edges[i].Src)<<32 | uint64(edges[i].Dst)
	})
	parallel.RadixSortUint64(packed)
	return parallel.DedupSortedUint64(packed)
}

// sortEdgeBatchKV is sortEdgeBatch keeping the payloads aligned with the
// keys: a stable pair sort whose dedup keeps, for duplicate (src, dst) pairs,
// the last payload in batch order. A zero-width V takes the id-only sort and
// returns nil payloads.
func sortEdgeBatchKV[V ctree.Value](edges []EdgeOf[V]) ([]uint64, []V) {
	if payloadWidth[V]() == 0 {
		return sortEdgeBatch(edges), nil
	}
	packed := make([]uint64, len(edges))
	vals := make([]V, len(edges))
	parallel.For(len(edges), func(i int) {
		packed[i] = uint64(edges[i].Src)<<32 | uint64(edges[i].Dst)
		vals[i] = edges[i].Val
	})
	parallel.RadixSortUint64Pairs(packed, vals)
	return parallel.DedupSortedUint64PairsLast(packed, vals)
}

// sortSigned is the sort of a mixed batch: the runs' updates, in run order
// with their kind as the sort companion, sorted stably by edge and
// deduplicated keeping each edge's last update while ORing whether any of
// its updates inserts it.
func sortSigned[V ctree.Value](runs []Run[V]) sortedBatch[V] {
	n := 0
	for _, r := range runs {
		n += len(r.Edges)
	}
	if n == 0 {
		return sortedBatch[V]{}
	}
	packed, comp := make([]uint64, 0, n), make([]signedVal[V], 0, n)
	for _, r := range runs {
		for _, e := range r.Edges {
			packed = append(packed, uint64(e.Src)<<32|uint64(e.Dst))
			comp = append(comp, signedVal[V]{val: e.Val, del: r.Del, ins: !r.Del})
		}
	}
	parallel.RadixSortUint64Pairs(packed, comp)
	w := 0
	for i := 1; i < n; i++ {
		if packed[i] != packed[w] {
			w++
			packed[w], comp[w] = packed[i], comp[i]
		} else {
			comp[w] = signedVal[V]{val: comp[i].val, del: comp[i].del, ins: comp[i].ins || comp[w].ins}
		}
	}
	return sortedBatch[V]{packed: packed[:w+1], comp: comp[:w+1]}
}

// Run is one same-kind run of edge updates for ApplyRuns (a delete ignores
// payloads).
type Run[V ctree.Value] struct {
	Del   bool
	Edges []EdgeOf[V]
}

// ApplyRuns returns g with the runs applied in order — the graph InsertEdges
// and DeleteEdges give run by run — in one radix sort and one fused
// vertex-tree pass: each edge's last update wins, payload included, and the
// vertex rule is the sequential one (applyCore). A single run takes the
// key-only sort of InsertEdges or DeleteEdges.
func (g GraphOf[V]) ApplyRuns(runs []Run[V]) GraphOf[V] {
	if len(runs) == 1 {
		if runs[0].Del {
			return g.DeleteEdges(runs[0].Edges)
		}
		return g.InsertEdges(runs[0].Edges)
	}
	sb := sortSigned(runs)
	if len(sb.packed) == 0 {
		return g
	}
	return g.with(applyCore(g.table(), g.cls, g.vt, sb, nil, false))
}

// InsertEdges returns a graph with the batch inserted (duplicates combined,
// last payload in batch order winning; existing edges take the new payload).
// Vertices appearing as sources or destinations are created as needed; the
// whole batch is one radix sort plus one fused vertex-tree pass (batch.go).
// O(k log n) work, polylog depth.
func (g GraphOf[V]) InsertEdges(edges []EdgeOf[V]) GraphOf[V] {
	return g.InsertEdgesWith(edges, nil)
}

// InsertEdgesWith is InsertEdges with an explicit payload-merge policy for
// edges that already exist: the stored payload becomes merge(old, new). A
// nil merge overwrites (last-writer-wins).
func (g GraphOf[V]) InsertEdgesWith(edges []EdgeOf[V], merge func(old, new V) V) GraphOf[V] {
	if len(edges) == 0 {
		return g
	}
	packed, vals := sortEdgeBatchKV(edges)
	return g.with(applyCore(g.table(), g.cls, g.vt, sortedBatch[V]{packed: packed, vals: vals}, merge, false))
}

// DeleteEdges returns a graph with the batch removed (payloads ignored);
// absent edges are ignored and vertices are kept even at degree zero (the
// paper makes singleton removal optional — see DeleteEdgesGC for the opt-in).
func (g GraphOf[V]) DeleteEdges(edges []EdgeOf[V]) GraphOf[V] { return g.deleteEdges(edges, false) }

// DeleteEdgesGC is DeleteEdges with the isolated-vertex GC opted in: any
// vertex whose edge tree becomes empty is dropped from the vertex-tree in
// the same pass. Intended for symmetric graphs, where deletes arrive in
// both directions and so both endpoints empty out together.
func (g GraphOf[V]) DeleteEdgesGC(edges []EdgeOf[V]) GraphOf[V] { return g.deleteEdges(edges, true) }

func (g GraphOf[V]) deleteEdges(edges []EdgeOf[V], dropEmpty bool) GraphOf[V] {
	if len(edges) == 0 {
		return g
	}
	return g.with(applyCore(g.table(), g.cls, g.vt, sortedBatch[V]{packed: sortEdgeBatch(edges), del: true}, nil, dropEmpty))
}

// CollectIsolated returns a graph without its degree-zero vertices — the
// full-sweep form of the isolated-vertex GC. O(n).
func (g GraphOf[V]) CollectIsolated() GraphOf[V] {
	return g.with(collectIsolatedCore(g.table(), g.cls, g.vt))
}

// sortedIDs returns a sorted, deduplicated copy of ids.
func sortedIDs(ids []uint32) []uint32 {
	sorted := append([]uint32(nil), ids...)
	parallel.SortUint32(sorted)
	return parallel.DedupSortedUint32(sorted)
}

// InsertVertices adds the given vertex ids with empty edge trees.
func (g GraphOf[V]) InsertVertices(ids []uint32) GraphOf[V] {
	if len(ids) == 0 {
		return g
	}
	empty := ctree.NewKV[V](g.Params())
	return g.with(upsertVertices(g.table(), g.cls, g.vt, sortedIDs(ids), func(_ int, old ctree.Tree[V], found bool) (ctree.Tree[V], bool) {
		if found {
			return old, true
		}
		return empty, true
	}))
}

// DeleteVertices removes the given vertices and every edge incident to them
// (the induced-subgraph semantics of the paper's interface, G[V \ V']).
func (g GraphOf[V]) DeleteVertices(ids []uint32) GraphOf[V] {
	if len(ids) == 0 {
		return g
	}
	ops := g.table()
	sorted := sortedIDs(ids)
	root := upsertVertices(ops, g.cls, g.vt, sorted, func(int, ctree.Tree[V], bool) (ctree.Tree[V], bool) {
		return ctree.Tree[V]{}, false
	})
	// Strip edges pointing at the removed vertices from every survivor.
	del := ctree.BuildKV[V](g.Params(), sorted, nil)
	verts, trees := vertices(ops, g.cls, root)
	parallel.ForGrain(len(trees), 16, func(i int) {
		trees[i] = trees[i].Difference(del)
	})
	return g.with(buildPages(ops, verts, func(i int) ctree.Tree[V] { return trees[i] }))
}

// Stats aggregates the memory shape of the whole graph: vertex-tree nodes
// plus all edge C-trees. Used by the space experiments, whose analytic model
// (Table 2) charges one vertex-tree node per vertex, so VertexNodes counts
// vertices, not index pages.
type Stats struct {
	VertexNodes int
	Edge        ctree.Stats
}

// Stats walks the graph and returns its memory shape (chunk bytes include
// the interleaved payload bytes).
func (g GraphOf[V]) Stats() Stats {
	s := Stats{VertexNodes: g.NumVertices()}
	g.ForEachVertex(func(_ uint32, et ctree.Tree[V]) bool {
		s.Edge.Add(et.Stats())
		return true
	})
	return s
}

// MakeUndirected duplicates each edge in both directions with the same
// payload, the form batch updates on symmetric graphs use (paper §7.3
// inserts each undirected edge as two directed updates within a single
// batch).
func MakeUndirected[V ctree.Value](edges []EdgeOf[V]) []EdgeOf[V] {
	out := make([]EdgeOf[V], 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, EdgeOf[V]{Val: e.Val, Src: e.Dst, Dst: e.Src})
	}
	return out
}

// MakeUndirectedWeighted is MakeUndirected on weighted edges.
func MakeUndirectedWeighted(edges []WeightedEdge) []WeightedEdge { return MakeUndirected(edges) }
