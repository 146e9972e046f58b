package aspen

import (
	"reflect"
	"sync"

	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/pftree"
)

// The vertex index is the paper's vertex-tree (§5) chunked the way C-trees
// chunk edges: one pftree node per page of pageSize consecutive ids instead
// of one per vertex. Key p holds the immutable page of ids
// [p<<pageBits, (p+1)<<pageBits): their edge-tree handles and degrees. The
// §5.1 flat view is a table of the same pages (flatsnapshot.go), so every
// edge-tree handle exists once. Ids are assumed dense, as the flat view
// already assumes: an isolated id costs a whole page.
const (
	pageBits = 4
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page holds the edge trees and degrees of one aligned id range. deg[s] is
// the size of slot s's tree for a present id and −1 for an absent one, whose
// handle is the zero Handle (so reading it yields no neighbors). heads[s]
// holds the tree's first two ids, so a flat-view scan that leaves a vertex
// after one or two neighbors never reaches its chunk; the unused heads of a
// slot below degree 2 are 0. A slot stores a ctree.Handle, not a Tree: every
// edge tree of a graph has the graph's class (GraphOf.cls), so the per-tree
// config pointer would be the same 16 times over. A page is never mutated
// once published, and the index keeps no page without a present id. 16
// handles of 32 B, 16 head pairs and 16 degrees is 704 B, a Go size class,
// whatever V is (TestPageLayout).
type page[V ctree.Value] struct {
	trees [pageSize]ctree.Handle[V]
	heads [pageSize][2]uint32
	deg   [pageSize]int32
}

// absentDegrees is the degree array of a page without vertices.
var absentDegrees = func() (d [pageSize]int32) {
	for s := range d {
		d[s] = -1
	}
	return d
}()

// present reports whether slot s's id is a vertex; a nil page has none.
func (pg *page[V]) present(s uint32) bool { return pg != nil && pg.deg[s] >= 0 }

// slot returns slot s's edge tree, of class cls, and whether its id is a
// vertex.
func (pg *page[V]) slot(cls ctree.Class[V], s uint32) (ctree.Tree[V], bool) {
	if !pg.present(s) {
		return ctree.Tree[V]{}, false
	}
	return cls.Tree(pg.trees[s]), true
}

// set stores et in slot s: its handle, its size and its first two ids.
func (pg *page[V]) set(s uint32, et ctree.Tree[V]) {
	pg.trees[s], pg.heads[s], pg.deg[s] = et.Handle(), [2]uint32{}, int32(et.Size())
	h, i := &pg.heads[s], 0
	et.ForEach(func(v uint32) bool {
		h[i] = v
		i++
		return i < len(h)
	})
}

// clear makes slot s absent.
func (pg *page[V]) clear(s uint32) {
	pg.trees[s], pg.heads[s], pg.deg[s] = ctree.Handle[V]{}, [2]uint32{}, -1
}

// pageCount is the vertex index's augmentation: the edges and vertices
// below a node, so NumEdges and NumVertices are O(1) (paper §5, "we augment
// the vertex-tree to store the number of edges contained in its subtrees").
type pageCount struct{ edges, verts uint64 }

func (pg *page[V]) count() (c pageCount) {
	for _, d := range pg.deg {
		if d >= 0 {
			c.edges += uint64(d)
			c.verts++
		}
	}
	return c
}

// vnode is a vertex-index node: key = page index, value = page.
type vnode[V ctree.Value] = pftree.Node[uint32, *page[V], pageCount]

// vopsT is the vertex-index operation table for payload type V.
type vopsT[V ctree.Value] = pftree.Ops[uint32, *page[V], pageCount]

func cmpU32(a, b uint32) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func newVops[V ctree.Value]() *vopsT[V] {
	return &vopsT[V]{
		Cmp: cmpU32,
		Aug: pftree.Augment[uint32, *page[V], pageCount]{
			FromEntry: func(_ uint32, pg *page[V]) pageCount { return pg.count() },
			Combine:   func(a, b pageCount) pageCount { return pageCount{a.edges + b.edges, a.verts + b.verts} },
			// Counts subtract: copying a path node reads neither its
			// untouched sibling nor an unchanged page.
			Sub: func(a, b pageCount) pageCount { return pageCount{a.edges - b.edges, a.verts - b.verts} },
		},
	}
}

var vopsCache sync.Map // reflect.Type of V -> *vopsT[V]

// vopsFor returns the interned vertex-index table for payload type V.
// Graphs resolve it once at construction and carry it, so accessors never
// look it up.
func vopsFor[V ctree.Value]() *vopsT[V] {
	key := reflect.TypeFor[V]()
	if o, ok := vopsCache.Load(key); ok {
		return o.(*vopsT[V])
	}
	o, _ := vopsCache.LoadOrStore(key, newVops[V]())
	return o.(*vopsT[V])
}

// findVertex returns u's edge tree and whether u is a vertex of vt.
func findVertex[V ctree.Value](ops *vopsT[V], cls ctree.Class[V], vt *vnode[V], u uint32) (ctree.Tree[V], bool) {
	pg, _ := ops.Find(vt, u>>pageBits)
	return pg.slot(cls, u&pageMask)
}

// forEachVertex applies f to every (vertex, edge tree) pair of vt in id
// order until f returns false.
func forEachVertex[V ctree.Value](ops *vopsT[V], cls ctree.Class[V], vt *vnode[V], f func(u uint32, et ctree.Tree[V]) bool) {
	ops.ForEach(vt, func(p uint32, pg *page[V]) bool {
		for s, d := range pg.deg {
			if d >= 0 && !f(p<<pageBits|uint32(s), cls.Tree(pg.trees[s])) {
				return false
			}
		}
		return true
	})
}

// vertices returns vt's vertex ids and their edge trees, in id order.
func vertices[V ctree.Value](ops *vopsT[V], cls ctree.Class[V], vt *vnode[V]) ([]uint32, []ctree.Tree[V]) {
	n := int(vt.AugOrZero().verts)
	ids, trees := make([]uint32, 0, n), make([]ctree.Tree[V], 0, n)
	forEachVertex(ops, cls, vt, func(u uint32, et ctree.Tree[V]) bool {
		ids, trees = append(ids, u), append(trees, et)
		return true
	})
	return ids, trees
}

// pageRuns returns where each page's run of the sorted ids starts.
func pageRuns(ids []uint32) []uint32 {
	return parallel.PackIndices(len(ids), func(i int) bool { return i == 0 || ids[i]>>pageBits != ids[i-1]>>pageBits })
}

// runOf returns run i of starts over n ids as a half-open index range.
func runOf(starts []uint32, i, n int) (lo, hi int) {
	if i+1 < len(starts) {
		n = int(starts[i+1])
	}
	return int(starts[i]), n
}

// buildPages builds the index over the sorted, duplicate-free ids whose
// edge trees tree(i) returns, one page per run, in parallel.
func buildPages[V ctree.Value](ops *vopsT[V], ids []uint32, tree func(i int) ctree.Tree[V]) *vnode[V] {
	starts := pageRuns(ids)
	entries := make([]pftree.Entry[uint32, *page[V]], len(starts))
	parallel.ForGrain(len(starts), 4, func(i int) {
		lo, hi := runOf(starts, i, len(ids))
		pg := &page[V]{deg: absentDegrees}
		for k := lo; k < hi; k++ {
			pg.set(ids[k]&pageMask, tree(k))
		}
		entries[i] = pftree.Entry[uint32, *page[V]]{Key: ids[lo] >> pageBits, Val: pg}
	})
	return ops.BuildSorted(entries)
}

// upsertVertices applies one update to each of the sorted, duplicate-free
// ids in a single page-keyed descent (pftree.MultiUpsert), copying each
// touched page once: f(i, old, found) receives the id's index in ids and,
// when it is a vertex, its edge tree, and returns the new tree and whether
// the vertex is kept — a present id not kept is removed, an absent one not
// kept is not created. A page left without vertices is dropped, and one
// whose slots all keep their trees stays the same pointer, so diffs prune
// it. Only a slot whose tree changed is rewritten, heads included, while
// the tree f just built is still in cache. f is called once per index,
// possibly from several goroutines.
func upsertVertices[V ctree.Value](ops *vopsT[V], cls ctree.Class[V], vt *vnode[V], ids []uint32, f func(i int, old ctree.Tree[V], found bool) (ctree.Tree[V], bool)) *vnode[V] {
	starts := pageRuns(ids)
	keys := make([]uint32, len(starts))
	for i, s := range starts {
		keys[i] = ids[s] >> pageBits
	}
	return ops.MultiUpsert(vt, keys, func(i int, old *page[V], found bool) (*page[V], bool) {
		pg := &page[V]{deg: absentDegrees}
		if found {
			*pg = *old
		}
		changed, live := false, false
		lo, hi := runOf(starts, i, len(ids))
		for k := lo; k < hi; k++ {
			s := ids[k] & pageMask
			cur, had := pg.slot(cls, s)
			et, keep := f(k, cur, had)
			switch {
			case keep && (!had || !et.EqualRep(cur)):
				pg.set(s, et)
				changed = true
			case !keep && had:
				pg.clear(s)
				changed = true
			}
		}
		if !changed {
			return old, found
		}
		for _, d := range pg.deg {
			live = live || d >= 0
		}
		return pg, live
	})
}
