package aspen

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/xhash"
)

// checkIndex verifies the trie vertex index: every node's level is one
// below its parent's, a level-1 node holds only pages and a higher one only
// nodes, and the root's level is at most the height the uint32 id space
// needs; each node's counts equal a recount of its edge trees; no node and
// no page without a vertex is kept (the empty graph's root is nil); every
// present slot's degree equals its tree's Size() and its heads the tree's
// first two ids (0 where the tree has fewer); every absent slot reads −1
// with an empty tree and zero heads.
func checkIndex[V ctree.Value](cls ctree.Class[V], vt *tnode[V]) error {
	if vt == nil {
		return nil
	}
	if vt.level < 1 || vt.level > levelFor(^uint32(0)) {
		return fmt.Errorf("root at level %d", vt.level)
	}
	_, _, err := checkNode(cls, vt, 0)
	return err
}

// checkNode checks the subtree at n, whose first page is base, and returns
// its recounted edges and vertices.
func checkNode[V ctree.Value](cls ctree.Class[V], n *tnode[V], base uint32) (edges, verts uint64, err error) {
	shift := fanBits * uint32(n.level-1)
	for d := range fanout {
		kid, pg := n.kids[d], n.pages[d]
		var e, v uint64
		switch {
		case n.level == 1 && kid != nil:
			return 0, 0, fmt.Errorf("level-1 node at page %d holds a node at digit %d", base, d)
		case n.level > 1 && pg != nil:
			return 0, 0, fmt.Errorf("level-%d node at page %d holds a page at digit %d", n.level, base, d)
		case kid != nil:
			if kid.level != n.level-1 {
				return 0, 0, fmt.Errorf("level-%d node at page %d has a level-%d child", n.level, base, kid.level)
			}
			if e, v, err = checkNode(cls, kid, base|uint32(d)<<shift); err != nil {
				return 0, 0, err
			}
			if v == 0 {
				return 0, 0, fmt.Errorf("node at page %d (level %d) has no vertex", base|uint32(d)<<shift, kid.level)
			}
		case pg != nil:
			if e, v, err = checkPage(cls, pg, base|uint32(d)); err != nil {
				return 0, 0, err
			}
		}
		edges, verts = edges+e, verts+v
	}
	if edges != n.edges || verts != n.verts {
		return 0, 0, fmt.Errorf("level-%d node at page %d counts %d edges / %d vertices, recount %d / %d", n.level, base, n.edges, n.verts, edges, verts)
	}
	return edges, verts, nil
}

// checkPage checks page p and returns its recounted edges and vertices.
func checkPage[V ctree.Value](cls ctree.Class[V], pg *page[V], p uint32) (edges, verts uint64, err error) {
	for s, d := range pg.deg {
		id := p<<pageBits | uint32(s)
		et := cls.Tree(pg.trees[s])
		var heads [2]uint32
		for i, v := range et.ToSlice()[:min(2, et.Size())] {
			heads[i] = v
		}
		switch {
		case d >= 0 && uint64(d) != et.Size():
			return 0, 0, fmt.Errorf("vertex %d: degree %d, edge tree holds %d", id, d, et.Size())
		case d < -1:
			return 0, 0, fmt.Errorf("slot %d: degree %d", id, d)
		case d == -1 && !et.Empty():
			return 0, 0, fmt.Errorf("absent slot %d holds a non-empty tree", id)
		case pg.heads[s] != heads:
			return 0, 0, fmt.Errorf("slot %d (degree %d): heads %v, edge tree starts %v", id, d, pg.heads[s], heads)
		case d >= 0:
			edges += et.Size()
			verts++
		}
	}
	if verts == 0 {
		return 0, 0, fmt.Errorf("page %d has no vertex", p)
	}
	return edges, verts, nil
}

// numPages counts the pages of the trie rooted at vt.
func numPages[V ctree.Value](vt *tnode[V]) int {
	n := 0
	if vt != nil {
		vt.forEachPage(0, func(uint32, *page[V]) bool {
			n++
			return true
		})
	}
	return n
}

// TestPageLayout pins the page at 704 bytes — 16 edge-tree handles of 32
// bytes, 16 pairs of head ids and 16 degrees, exactly a Go size class — for
// every payload type, so a field added later cannot silently move pages
// into the next class; and the trie node at 280 bytes, in the 288-byte
// class.
func TestPageLayout(t *testing.T) {
	for _, c := range []struct {
		name       string
		page, node uintptr
	}{
		{"struct{}", unsafe.Sizeof(page[struct{}]{}), unsafe.Sizeof(tnode[struct{}]{})},
		{"float32", unsafe.Sizeof(page[float32]{}), unsafe.Sizeof(tnode[float32]{})},
		{"uint64", unsafe.Sizeof(page[uint64]{}), unsafe.Sizeof(tnode[uint64]{})},
	} {
		if c.page != 704 || c.node != 280 {
			t.Errorf("V = %s: sizeof(page) = %d, sizeof(node) = %d, want 704 and 280", c.name, c.page, c.node)
		}
	}
}

// checkGraphIndex fails t when g's index is broken.
func checkGraphIndex[V ctree.Value](t *testing.T, what string, g GraphOf[V]) {
	t.Helper()
	if err := checkIndex(g.cls, g.vt); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// deltaKinds lists DiffVersions(old, cur) as "id:kind" records.
func deltaKinds[V ctree.Value](old, cur GraphOf[V]) string {
	out := ""
	DiffVersions(old, cur, func(d VertexDelta[V]) bool {
		out += fmt.Sprintf("%d:%s ", d.ID, d.Kind)
		return true
	})
	return out
}

// checkPageEdge drives the graph operations over the two ids a and a+1 on
// either side of a page edge (a is the last id of its page).
func checkPageEdge(t *testing.T, a uint32) {
	b := a + 1
	g := NewGraph(params()).InsertEdges(MakeUndirected([]Edge{{Src: a, Dst: b}}))
	checkGraphIndex(t, "insert", g)
	if g.NumVertices() != 2 || g.NumEdges() != 2 || g.Order() != int(b)+1 || g.Degree(a) != 1 || g.Degree(b) != 1 ||
		!g.HasEdge(a, b) || !g.HasEdge(b, a) || g.HasVertex(a-1) || g.HasVertex(b+1) {
		t.Fatalf("insert across the edge: %d vertices, %d edges, order %d", g.NumVertices(), g.NumEdges(), g.Order())
	}
	if numPages(g.vt) != 2 {
		t.Fatalf("ids %d and %d sit in %d pages, want 2", a, b, numPages(g.vt))
	}
	gc := g.DeleteEdgesGC(MakeUndirected([]Edge{{Src: a, Dst: b}}))
	checkGraphIndex(t, "gc", gc)
	if gc.NumVertices() != 0 || gc.Order() != 0 || gc.vt != nil {
		t.Fatalf("gc delete left %d vertices, order %d", gc.NumVertices(), gc.Order())
	}
	dv := g.DeleteVertices([]uint32{a})
	checkGraphIndex(t, "delete vertex", dv)
	if dv.NumVertices() != 1 || dv.HasVertex(a) || !dv.HasVertex(b) || dv.Degree(b) != 0 || dv.Order() != int(b)+1 || numPages(dv.vt) != 1 {
		t.Fatalf("DeleteVertices(%d): %d vertices, order %d", a, dv.NumVertices(), dv.Order())
	}
	if got, want := deltaKinds(g, dv), fmt.Sprintf("%d:removed %d:changed ", a, b); got != want {
		t.Fatalf("DiffVersions = %q, want %q", got, want)
	}
	iv := g.InsertVertices([]uint32{a - 1, b + 1, a})
	checkGraphIndex(t, "insert vertices", iv)
	if iv.NumVertices() != 4 || iv.Degree(a) != 1 || iv.Degree(a-1) != 0 || iv.Order() != int(b)+2 {
		t.Fatalf("InsertVertices: %d vertices, order %d", iv.NumVertices(), iv.Order())
	}
	if got, want := deltaKinds(g, iv), fmt.Sprintf("%d:added %d:added ", a-1, b+1); got != want {
		t.Fatalf("DiffVersions = %q, want %q", got, want)
	}
	if ci := iv.CollectIsolated(); ci.NumVertices() != 2 || ci.Order() != int(b)+1 || !ci.Equal(g) {
		t.Fatalf("CollectIsolated: %d vertices, order %d", ci.NumVertices(), ci.Order())
	}
	back, err := GraphFromSnapshot(params(), iv.Snapshot())
	if err != nil || !back.Equal(iv) {
		t.Fatalf("snapshot round trip: %v", err)
	}
	checkGraphIndex(t, "from snapshot", back)
}

// pageEdgeSchedule is a differential schedule around page edges — ids 13–18,
// 65 533–65 538 and the top four ids — plus a wide, sparse block of one
// vertex per page (1 500 pages), whose batches split into pieces when Procs
// allows it.
func pageEdgeSchedule() []batchStep[struct{}] {
	const top = ^uint32(0)
	groups := [][]uint32{
		{13, 14, 15, 16, 17, 18},
		{65533, 65534, 65535, 65536, 65537, 65538},
		{top - 3, top - 2, top - 1, top},
	}
	var sparse []uint32
	for k := uint32(0); k < 1500; k++ {
		sparse = append(sparse, 20_000+k<<pageBits|k&pageMask)
	}
	chain := func(ids []uint32) (es []Edge) {
		for i := 1; i < len(ids); i++ {
			es = append(es, Edge{Src: ids[i-1], Dst: ids[i]})
		}
		return MakeUndirected(es)
	}
	touching := func(es []Edge, ids ...uint32) (out []Edge) {
		for _, e := range es {
			for _, u := range ids {
				if e.Src == u || e.Dst == u {
					out = append(out, e)
					break
				}
			}
		}
		return out
	}
	var all []Edge
	for _, g := range groups {
		all = append(all, chain(g)...)
	}
	cross := MakeUndirected([]Edge{{Src: 15, Dst: 65536}, {Src: 16, Dst: top}, {Src: 65535, Dst: top - 3}})
	var steps []batchStep[struct{}]
	add := func(name string, del, gc bool, edges []Edge) {
		steps = append(steps, batchStep[struct{}]{name: name, del: del, gc: gc, packed: sortEdgeBatch(edges)})
	}
	add("chains", false, false, all)
	add("cross groups", false, false, cross)
	add("sparse wide", false, false, chain(sparse))
	add("gc 15 and 65535", true, true, touching(append(all, cross...), 15, 65535))
	add("gc the top page", true, true, touching(append(all, cross...), top-3, top-2, top-1, top))
	add("directed 15 -> top", false, false, []Edge{{Src: 15, Dst: top}})
	add("delete absent", true, false, []Edge{{Src: 17, Dst: 65537}, {Src: 1 << 20, Dst: 3}})
	add("gc sparse half", true, true, chain(sparse[:750]))
	add("regrow", false, false, append(append(all, cross...), chain(sparse)...))
	add("delete 16, keep its page", true, false, touching(all, 16))
	return steps
}

// TestPageBoundaries covers the ids at page edges: 15/16 and 65 535/65 536
// through every graph operation, a lone vertex at the largest id (graph
// operations only — a flat view would allocate for the whole id space), and
// a differential schedule around them.
func TestPageBoundaries(t *testing.T) {
	t.Run("15-16", func(t *testing.T) { checkPageEdge(t, 15) })
	t.Run("65535-65536", func(t *testing.T) { checkPageEdge(t, 65535) })
	t.Run("lone-max-id", func(t *testing.T) {
		const m = ^uint32(0)
		g := NewGraph(params()).InsertVertices([]uint32{m})
		checkGraphIndex(t, "lone", g)
		if et, ok := g.EdgeTree(m); g.NumVertices() != 1 || g.NumEdges() != 0 || g.Order() != 1<<32 || !ok || !et.Empty() || g.Degree(m) != 0 || g.HasVertex(m-1) {
			t.Fatalf("lone vertex at %d: %d vertices, order %d", m, g.NumVertices(), g.Order())
		}
		g2 := g.InsertEdges(MakeUndirected([]Edge{{Src: m, Dst: 0}}))
		checkGraphIndex(t, "linked", g2)
		if g2.NumVertices() != 2 || g2.Degree(m) != 1 || !g2.HasEdge(m, 0) || g2.Order() != 1<<32 {
			t.Fatalf("linked: %d vertices, order %d", g2.NumVertices(), g2.Order())
		}
		if got, want := deltaKinds(g, g2), fmt.Sprintf("0:added %d:changed ", m); got != want {
			t.Fatalf("DiffVersions = %q, want %q", got, want)
		}
		if gc := g2.DeleteEdgesGC(MakeUndirected([]Edge{{Src: m, Dst: 0}})); gc.NumVertices() != 0 || gc.Order() != 0 {
			t.Fatalf("gc delete left %d vertices, order %d", gc.NumVertices(), gc.Order())
		}
		if dv := g2.DeleteVertices([]uint32{m}); dv.NumVertices() != 1 || dv.Order() != 1 || dv.Degree(0) != 0 {
			t.Fatalf("DeleteVertices(%d): %d vertices, order %d", m, dv.NumVertices(), dv.Order())
		}
		back, err := GraphFromSnapshot(params(), g2.Snapshot())
		if err != nil || !back.Equal(g2) || back.Order() != 1<<32 {
			t.Fatalf("snapshot round trip: %v", err)
		}
	})
	t.Run("differential", func(t *testing.T) {
		runBatchDifferential(t, params(), pageEdgeSchedule())
	})
}

// TestPageBoundariesForked runs the page-edge differential with Procs
// raised, so its wide batches split into pieces on any box; under -race
// this covers the page callbacks running concurrently.
func TestPageBoundariesForked(t *testing.T) {
	defer func(p int) { parallel.Procs = p }(parallel.Procs)
	parallel.Procs = 4
	runBatchDifferential(t, ctree.DefaultParams(), pageEdgeSchedule())
}

// allocBytesPerRun returns the bytes f allocates per call, averaged over runs.
func allocBytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFlatViewsAllocateNoPages: a built or patched view allocates its
// header, its page table and its degree array and nothing else — no page
// and no edge-tree handle is copied. A batch that touches a few hundred
// pages would cost ≥ 70 KB more if patching copied them.
func TestFlatViewsAllocateNoPages(t *testing.T) {
	defer func(p int) { parallel.Procs = p }(parallel.Procs)
	parallel.Procs = 1 // the parallel build also allocates its workers' closures
	r := xhash.NewRNG(75)
	g := NewGraph(params()).InsertEdges(MakeUndirected(randomEdges(r, 60_000, 30_000)))
	g2 := g.InsertEdges(MakeUndirected(randomEdges(r, 300, 30_000)))
	built := BuildFlatSnapshot(g)
	want := built.MemoryBytes() + 8192 // size-class round-ups and the header
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"BuildFlatSnapshot", func() { BuildFlatSnapshot(g2) }},
		{"PatchFlatSnapshot", func() { PatchFlatSnapshot(built, g2) }},
	} {
		if n := testing.AllocsPerRun(20, c.f); n > 3 {
			t.Errorf("%s: %.0f allocs, want <= 3 (view, table, degrees)", c.name, n)
		}
		if b := allocBytesPerRun(20, c.f); b > want {
			t.Errorf("%s: %d bytes, want <= %d (table + degrees %d)", c.name, b, want, built.MemoryBytes())
		}
	}
}

// trieGrowthSchedule grows the trie one level at a time — a chain over ids
// [0, 16 384) needs three levels, 65 535–65 536 a fourth, 1 << 20 a fifth
// — then empties whole subtrees with the GC delete: the low chain's, then
// everything, and regrows from the empty trie. The wide batches split into
// pieces when Procs is above 1.
func trieGrowthSchedule() []batchStep[struct{}] {
	chain := func(lo, n, stride uint32) (es []Edge) {
		for k := uint32(1); k < n; k++ {
			es = append(es, Edge{Src: lo + (k-1)*stride, Dst: lo + k*stride})
		}
		return MakeUndirected(es)
	}
	low, mid, high := chain(0, 1024, 16), chain(65535, 2, 1), chain(1<<20, 600, 64)
	link := MakeUndirected([]Edge{{Src: 7, Dst: 1 << 20}})
	var steps []batchStep[struct{}]
	add := func(name string, del, gc bool, edges []Edge) {
		steps = append(steps, batchStep[struct{}]{name: name, del: del, gc: gc, packed: sortEdgeBatch(edges)})
	}
	add("three levels", false, false, low)
	add("grow to four", false, false, mid)
	add("grow to five", false, false, append(high, link...))
	add("empty the low subtree", true, true, append(low, link...))
	add("empty all", true, true, append(mid, high...))
	add("regrow", false, false, chain(3, 300, 5))
	return steps
}

// TestTrieGrowth grows the trie past 65 535 → 65 536 and 1 << 20 and checks
// the levels, that a grown root keeps the old one as its first child, that
// a GC delete drops a whole subtree, and that DiffVersions and
// PatchFlatSnapshot (both ways) agree with the graphs across the height
// changes; then it runs the growth schedule against the reference.
func TestTrieGrowth(t *testing.T) {
	g0 := NewGraph(params()).InsertEdges(MakeUndirected([]Edge{{Src: 0, Dst: 65535}}))
	g1 := g0.InsertEdges(MakeUndirected([]Edge{{Src: 65535, Dst: 65536}}))
	g2 := g1.InsertEdges(MakeUndirected([]Edge{{Src: 1 << 20, Dst: 1<<20 + 1}}))
	g3 := g2.DeleteEdgesGC(MakeUndirected([]Edge{{Src: 1 << 20, Dst: 1<<20 + 1}}))
	for _, c := range []struct {
		name  string
		g     Graph
		level uint8
		order int
	}{{"g0", g0, 3, 65536}, {"g1", g1, 4, 65537}, {"g2", g2, 5, 1<<20 + 2}, {"g3", g3, 5, 65537}} {
		checkGraphIndex(t, c.name, c.g)
		if c.g.vt.level != c.level || c.g.Order() != c.order {
			t.Fatalf("%s: level %d, order %d, want %d and %d", c.name, c.g.vt.level, c.g.Order(), c.level, c.order)
		}
	}
	if g2.vt.kids[0] != g1.vt {
		t.Fatal("growing the trie copied the old root instead of hanging it at digit 0")
	}
	if g3.vt.kids[1] != nil {
		t.Fatal("the GC delete kept the emptied subtree of 1 << 20")
	}
	for _, c := range []struct {
		old, cur Graph
		want     string
	}{
		{g0, g1, "65535:changed 65536:added "},
		{g1, g0, "65535:changed 65536:removed "},
		{g1, g2, "1048576:added 1048577:added "},
		{g2, g1, "1048576:removed 1048577:removed "},
		{g0, g3, "65535:changed 65536:added "},
		{g3, g0, "65535:changed 65536:removed "},
	} {
		if got := deltaKinds(c.old, c.cur); got != c.want {
			t.Fatalf("DiffVersions(order %d → %d) = %q, want %q", c.old.Order(), c.cur.Order(), got, c.want)
		}
		p := PatchFlatSnapshot(BuildFlatSnapshot(c.old), c.cur)
		checkFlatAgainstGraph(t, p, c.cur, fmt.Sprintf("patch order %d → %d", c.old.Order(), c.cur.Order()))
	}
	runBatchDifferential(t, params(), trieGrowthSchedule())
}

// TestTrieGrowthForked runs the growth schedule with Procs raised, so its
// batches split into pieces that the workers claim; under -race this covers
// the pieces running concurrently.
func TestTrieGrowthForked(t *testing.T) {
	defer func(p int) { parallel.Procs = p }(parallel.Procs)
	parallel.Procs = 4
	runBatchDifferential(t, ctree.DefaultParams(), trieGrowthSchedule())
}
