package aspen

import (
	"repro/internal/ctree"
	"repro/internal/parallel"
)

// The vertex index is the paper's vertex-tree (§5) chunked the way C-trees
// chunk edges and addressed by id bits instead of searched: a persistent
// 16-ary trie whose leaves are immutable pages of pageSize consecutive ids.
// Page p holds ids [p<<pageBits, (p+1)<<pageBits): their edge-tree handles
// and degrees. The §5.1 flat view is a table of the same pages
// (flatsnapshot.go), so every edge-tree handle exists once. Ids are assumed
// dense, as the flat view already assumes: an isolated id costs a whole
// page.
const (
	pageBits = 4
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	fanBits  = 4
	fanout   = 1 << fanBits
	fanMask  = fanout - 1
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

// count returns the edges and vertices of pg.
func (pg *page[V]) count() (edges, verts uint64) {
	for _, d := range pg.deg {
		if d >= 0 {
			edges += uint64(d)
			verts++
		}
	}
	return edges, verts
}

// tnode is an interior node of the vertex index. A node at level l covers
// the fanout^l pages whose indexes share their digits above l: at level 1
// pages[d] is the page whose lowest digit is d, and above it kids[d] is the
// level l−1 node whose pages have digit d at position l. The root's level
// is the trie's height; it grows when an id exceeds the root's range and
// never shrinks. edges and verts count the directed edges and vertices
// below the node, so NumEdges and NumVertices are O(1) (paper §5, "we
// augment the vertex-tree to store the number of edges contained in its
// subtrees"). A node is never mutated once published, and the index keeps
// no node and no page without a vertex: the empty graph's root is nil.
type tnode[V ctree.Value] struct {
	kids         [fanout]*tnode[V]
	pages        [fanout]*page[V]
	edges, verts uint64
	level        uint8
}

// digit returns the child index of id u in a node at level l.
func digit(u uint32, l uint8) int {
	return int(u >> (pageBits + fanBits*uint32(l-1)) & fanMask)
}

// covers reports whether id u lies in the range of a root at level l.
func covers(l uint8, u uint32) bool {
	return uint64(u)>>(pageBits+fanBits*uint64(l)) == 0
}

// levelFor returns the height of the smallest trie whose range holds id u.
func levelFor(u uint32) uint8 {
	l := uint8(1)
	for !covers(l, u) {
		l++
	}
	return l
}

// numEdges returns the directed edges below n.
func (n *tnode[V]) numEdges() uint64 {
	if n == nil {
		return 0
	}
	return n.edges
}

// numVerts returns the vertices below n.
func (n *tnode[V]) numVerts() uint64 {
	if n == nil {
		return 0
	}
	return n.verts
}

// height returns n's level, 0 for the empty trie.
func (n *tnode[V]) height() uint8 {
	if n == nil {
		return 0
	}
	return n.level
}

// page returns the page holding id u in the trie rooted at n, nil when no
// vertex is there. O(height).
func (n *tnode[V]) page(u uint32) *page[V] {
	if n == nil || !covers(n.level, u) {
		return nil
	}
	for n.level > 1 {
		if n = n.kids[digit(u, n.level)]; n == nil {
			return nil
		}
	}
	return n.pages[digit(u, 1)]
}

// nodeAt returns the level-l node of the trie rooted at n whose range holds
// id u, nil when it has no vertex; u must lie in n's range and l must not
// exceed n's level.
func (n *tnode[V]) nodeAt(l uint8, u uint32) *tnode[V] {
	for n != nil && n.level > l {
		n = n.kids[digit(u, n.level)]
	}
	return n
}

// childAt returns child d of n seen at level l, which is n's own level or
// above it: a node seen above its level stands for the chain of nodes that
// would hold it at digit 0, the shape its trie takes when it grows.
func (n *tnode[V]) childAt(l uint8, d int) *tnode[V] {
	switch {
	case n == nil:
		return nil
	case n.level == l:
		return n.kids[d]
	case d == 0:
		return n
	default:
		return nil
	}
}

// pageAt returns page d of n, a level-1 node or nil.
func (n *tnode[V]) pageAt(d int) *page[V] {
	if n == nil {
		return nil
	}
	return n.pages[d]
}

// forEachPage applies f to every page below n in page order until f returns
// false, and reports whether it ran to completion; base is the index of
// n's first page.
func (n *tnode[V]) forEachPage(base uint32, f func(p uint32, pg *page[V]) bool) bool {
	if n.level == 1 {
		for d, pg := range n.pages {
			if pg != nil && !f(base|uint32(d), pg) {
				return false
			}
		}
		return true
	}
	shift := fanBits * uint32(n.level-1)
	for d, c := range n.kids {
		if c != nil && !c.forEachPage(base|uint32(d)<<shift, f) {
			return false
		}
	}
	return true
}

// lastPage returns the index and the page of n's highest page; n is not
// nil.
func (n *tnode[V]) lastPage() (uint32, *page[V]) {
	var p uint32
	for n.level > 1 {
		d := fanMask
		for n.kids[d] == nil {
			d--
		}
		p, n = p<<fanBits|uint32(d), n.kids[d]
	}
	d := fanMask
	for n.pages[d] == nil {
		d--
	}
	return p<<fanBits | uint32(d), n.pages[d]
}

// diffPages applies f, in page order, to every page index whose page
// differs by pointer between the tries rooted at old and cur, nil standing
// for a range without vertices, until f returns false; it reports whether
// the walk ran to completion. Pointer-equal subtrees are skipped, so
// between versions of one lineage the walk visits only the copied paths.
// Tries of different heights align at digit 0.
func diffPages[V ctree.Value](old, cur *tnode[V], f func(p uint32, op, np *page[V]) bool) bool {
	l := max(old.height(), cur.height())
	return l == 0 || diffAt(l, 0, old, cur, f)
}

// diffAt is diffPages over a and b seen at level l, their range starting at
// page base.
func diffAt[V ctree.Value](l uint8, base uint32, a, b *tnode[V], f func(p uint32, op, np *page[V]) bool) bool {
	if a == b {
		return true
	}
	if l == 1 {
		for d := range fanout {
			if op, np := a.pageAt(d), b.pageAt(d); op != np && !f(base|uint32(d), op, np) {
				return false
			}
		}
		return true
	}
	shift := fanBits * uint32(l-1)
	for d := range fanout {
		if !diffAt(l-1, base|uint32(d)<<shift, a.childAt(l, d), b.childAt(l, d), f) {
			return false
		}
	}
	return true
}

// findVertex returns u's edge tree and whether u is a vertex of vt.
func findVertex[V ctree.Value](cls ctree.Class[V], vt *tnode[V], u uint32) (ctree.Tree[V], bool) {
	return vt.page(u).slot(cls, u&pageMask)
}

// forEachVertex applies f to every (vertex, edge tree) pair of vt in id
// order until f returns false.
func forEachVertex[V ctree.Value](cls ctree.Class[V], vt *tnode[V], f func(u uint32, et ctree.Tree[V]) bool) {
	if vt == nil {
		return
	}
	vt.forEachPage(0, func(p uint32, pg *page[V]) bool {
		for s, d := range pg.deg {
			if d >= 0 && !f(p<<pageBits|uint32(s), cls.Tree(pg.trees[s])) {
				return false
			}
		}
		return true
	})
}

// vertices returns vt's vertex ids and their edge trees, in id order.
func vertices[V ctree.Value](cls ctree.Class[V], vt *tnode[V]) ([]uint32, []ctree.Tree[V]) {
	n := int(vt.numVerts())
	ids, trees := make([]uint32, 0, n), make([]ctree.Tree[V], 0, n)
	forEachVertex(cls, vt, func(u uint32, et ctree.Tree[V]) bool {
		ids, trees = append(ids, u), append(trees, et)
		return true
	})
	return ids, trees
}

// runStarts returns where each run of the sorted ids that shares the bits
// above shift starts.
func runStarts(ids []uint32, shift uint32) []uint32 {
	return parallel.PackIndices(len(ids), func(i int) bool { return i == 0 || ids[i]>>shift != ids[i-1]>>shift })
}

// runOf returns run i of starts over n ids as a half-open index range.
func runOf(starts []uint32, i, n int) (lo, hi int) {
	if i+1 < len(starts) {
		n = int(starts[i+1])
	}
	return int(starts[i]), n
}

// buildPages builds the index over the sorted, duplicate-free ids whose
// edge trees tree(i) returns: one page per run, built in parallel, then the
// nodes above them.
func buildPages[V ctree.Value](ids []uint32, tree func(i int) ctree.Tree[V]) *tnode[V] {
	if len(ids) == 0 {
		return nil
	}
	starts := runStarts(ids, pageBits)
	pages := make([]*page[V], len(starts))
	parallel.ForGrain(len(starts), 4, func(i int) {
		lo, hi := runOf(starts, i, len(ids))
		pg := &page[V]{deg: absentDegrees}
		for k := lo; k < hi; k++ {
			pg.set(ids[k]&pageMask, tree(k))
		}
		pages[i] = pg
	})
	firsts := make([]uint32, len(starts))
	for i, s := range starts {
		firsts[i] = ids[s]
	}
	return assemble(levelFor(ids[len(ids)-1]), firsts, pages)
}

// assemble returns the level-l node over pages, whose first ids firsts
// ascend and lie in one level-l range.
func assemble[V ctree.Value](l uint8, firsts []uint32, pages []*page[V]) *tnode[V] {
	n := &tnode[V]{level: l}
	for lo := 0; lo < len(firsts); {
		d, hi := digit(firsts[lo], l), lo+1
		for hi < len(firsts) && digit(firsts[hi], l) == d {
			hi++
		}
		var e, v uint64
		if l == 1 {
			n.pages[d] = pages[lo]
			e, v = pages[lo].count()
		} else {
			c := assemble(l-1, firsts[lo:hi], pages[lo:hi])
			n.kids[d], e, v = c, c.edges, c.verts
		}
		n.edges, n.verts = n.edges+e, n.verts+v
		lo = hi
	}
	return n
}

// A batch update splits its ids into pieces, the runs under one trie node
// each, which the workers of one parallel.ForGrain claim one at a time: a
// worker that claims a piece updates that node's subtree (f builds the edge
// trees there too), and the caller, itself a worker, then copies the few
// nodes above the pieces. Pieces sit at the highest level at which the
// batch falls under piecesPerProc of them per worker, so that claiming
// evens out their skew (rMAT's hubs sit in the low ids), and at level 1
// when no level above splits it that finely; a batch of fewer than
// minPieceIDs ids per worker is one piece, run by the caller alone.
const (
	piecesPerProc = 8
	minPieceIDs   = 32
)

// pieceLevel returns the level of the nodes that split the sorted ids into
// pieces under a root at level l, or l when they stay one piece.
func pieceLevel(ids []uint32, l uint8) uint8 {
	p := parallel.Procs
	if p <= 1 || len(ids) < minPieceIDs*p {
		return l
	}
	want := piecesPerProc * p
	for pl := l - 1; pl > 1; pl-- {
		shift, n := pageBits+fanBits*uint32(pl), 1
		for i := 1; i < len(ids) && n < want; i++ {
			if ids[i]>>shift != ids[i-1]>>shift {
				n++
			}
		}
		if n >= want {
			return pl
		}
	}
	return 1
}

// counts is a change in a subtree's edge and vertex counts.
type counts struct{ edges, verts int64 }

// trieUpdate is one upsertVertices call: the ids, their update, and the
// results of the pieces the workers ran.
type trieUpdate[V ctree.Value] struct {
	cls    ctree.Class[V]
	ids    []uint32
	f      func(i int, old ctree.Tree[V], found bool) (ctree.Tree[V], bool)
	pl     uint8 // the pieces' level; 0 when there are none
	pieces []pieceResult[V]
	next   int // the piece the descent above the pieces takes next
}

// pieceResult is a piece's new node and the change in its counts.
type pieceResult[V ctree.Value] struct {
	n *tnode[V]
	d counts
}

// upsertVertices applies one update to each of the sorted, duplicate-free
// ids in one descent of the trie: f(i, old, found) receives the id's index
// in ids and, when it is a vertex, its edge tree, and returns the new tree
// and whether the vertex is kept — a present id not kept is removed, an
// absent one not kept is not created. Only the nodes on the paths to the
// touched pages, and those pages, are copied, each once. A page or node
// left without a vertex is dropped, and one whose slots all keep their
// trees stays the same pointer, so diffs prune it. f is called once per
// index, possibly from several goroutines (see pieceLevel).
func upsertVertices[V ctree.Value](cls ctree.Class[V], vt *tnode[V], ids []uint32, f func(i int, old ctree.Tree[V], found bool) (ctree.Tree[V], bool)) *tnode[V] {
	if len(ids) == 0 {
		return vt
	}
	l, root := levelFor(ids[len(ids)-1]), vt
	if root != nil {
		l = max(l, root.level)
		for root.level < l { // grow: the old root becomes digit 0 of a new one
			root = &tnode[V]{kids: [fanout]*tnode[V]{root}, edges: root.edges, verts: root.verts, level: root.level + 1}
		}
	}
	u := &trieUpdate[V]{cls: cls, ids: ids, f: f}
	if pl := pieceLevel(ids, l); pl < l {
		starts := runStarts(ids, pageBits+fanBits*uint32(pl))
		u.pl, u.pieces = pl, make([]pieceResult[V], len(starts))
		parallel.ForGrain(len(starts), 1, func(i int) {
			lo, hi := runOf(starts, i, len(ids))
			r := &u.pieces[i]
			r.n, r.d = u.node(root.nodeAt(pl, ids[lo]), pl, lo, hi)
		})
	}
	if out, _ := u.node(root, l, 0, len(ids)); out != root {
		return out
	}
	return vt
}

// node returns n, a level-l node or nil, with the ids lo..hi, all in its
// range, updated, and the change in its counts. A node whose children all
// come back unchanged is returned as is and one left without a vertex as
// nil; any other is copied once. A child at the pieces' level is the next
// piece's result.
func (u *trieUpdate[V]) node(n *tnode[V], l uint8, lo, hi int) (*tnode[V], counts) {
	var c *tnode[V]
	var dc counts
	for lo < hi {
		d, end := digit(u.ids[lo], l), lo+1
		for end < hi && digit(u.ids[end], l) == d {
			end++
		}
		var kid *tnode[V]
		var pg *page[V]
		var kd counts
		changed := false
		switch {
		case l == 1:
			old := n.pageAt(d)
			pg, kd = u.page(old, lo, end)
			changed = pg != old
		case l-1 == u.pl:
			r := u.pieces[u.next]
			u.next++
			kid, kd = r.n, r.d
			changed = kid != n.childAt(l, d)
		default:
			old := n.childAt(l, d)
			kid, kd = u.node(old, l-1, lo, end)
			changed = kid != old
		}
		if changed {
			if c == nil {
				c = &tnode[V]{level: l}
				if n != nil {
					*c = *n
				}
			}
			c.kids[d], c.pages[d] = kid, pg
			dc.edges, dc.verts = dc.edges+kd.edges, dc.verts+kd.verts
		}
		lo = end
	}
	if c == nil {
		return n, counts{}
	}
	c.edges, c.verts = c.edges+uint64(dc.edges), c.verts+uint64(dc.verts)
	if c.verts == 0 {
		return nil, dc
	}
	return c, dc
}

// page returns old (nil: no vertex in its range) with the ids lo..hi, all
// in it, updated, and the change in its counts. A page whose slots all keep
// their edge trees is returned as is and one left without a vertex as nil;
// any other is copied once. Only a slot whose tree changed is rewritten,
// heads included, while the tree f just built is still in cache.
func (u *trieUpdate[V]) page(old *page[V], lo, hi int) (*page[V], counts) {
	pg := &page[V]{deg: absentDegrees}
	if old != nil {
		*pg = *old
	}
	var dc counts
	changed := false
	for k := lo; k < hi; k++ {
		s := u.ids[k] & pageMask
		cur, had := pg.slot(u.cls, s)
		et, keep := u.f(k, cur, had)
		switch {
		case keep && (!had || !et.EqualRep(cur)):
			dc.edges += int64(et.Size()) - int64(max(pg.deg[s], 0))
			if !had {
				dc.verts++
			}
			pg.set(s, et)
			changed = true
		case !keep && had:
			dc.edges -= int64(pg.deg[s])
			dc.verts--
			pg.clear(s)
			changed = true
		}
	}
	if !changed {
		return old, counts{}
	}
	for _, d := range pg.deg {
		if d >= 0 {
			return pg, dc
		}
	}
	return nil, dc
}
