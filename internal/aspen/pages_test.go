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

// checkIndex verifies the paged vertex index: pftree's order, balance and
// size bookkeeping; the augmentation equal to a recount of the edge trees;
// every present slot's degree equal to its tree's Size() and its heads equal
// to the tree's first two ids (0 where the tree has fewer); every absent
// slot at −1 with an empty tree and zero heads; and no page without a
// vertex.
func checkIndex[V ctree.Value](ops *vopsT[V], cls ctree.Class[V], vt *vnode[V]) error {
	if err := ops.CheckInvariants(vt, func(a, b pageCount) bool { return a == b }); err != nil {
		return err
	}
	var err error
	var recount pageCount
	ops.ForEach(vt, func(p uint32, pg *page[V]) bool {
		live := false
		for s, d := range pg.deg {
			id := p<<pageBits | uint32(s)
			et := cls.Tree(pg.trees[s])
			var heads [2]uint32
			for i, v := range et.ToSlice()[:min(2, et.Size())] {
				heads[i] = v
			}
			switch {
			case d >= 0 && uint64(d) != et.Size():
				err = fmt.Errorf("vertex %d: degree %d, edge tree holds %d", id, d, et.Size())
			case d < -1:
				err = fmt.Errorf("slot %d: degree %d", id, d)
			case d == -1 && !et.Empty():
				err = fmt.Errorf("absent slot %d holds a non-empty tree", id)
			case pg.heads[s] != heads:
				err = fmt.Errorf("slot %d (degree %d): heads %v, edge tree starts %v", id, d, pg.heads[s], heads)
			case d >= 0:
				live = true
				recount.edges += et.Size()
				recount.verts++
			}
		}
		if !live && err == nil {
			err = fmt.Errorf("page %d has no vertex", p)
		}
		return err == nil
	})
	if err == nil && recount != vt.AugOrZero() {
		err = fmt.Errorf("augmentation %+v, recount %+v", vt.AugOrZero(), recount)
	}
	return err
}

// TestPageLayout pins the page at 704 bytes — 16 edge-tree handles of 32
// bytes, 16 pairs of head ids and 16 degrees, exactly a Go size class — for
// every payload type,
// so a field added later cannot silently move pages into the next class;
// and the index node at 56 bytes, in the 64-byte class.
func TestPageLayout(t *testing.T) {
	for _, c := range []struct {
		name       string
		page, node uintptr
	}{
		{"struct{}", unsafe.Sizeof(page[struct{}]{}), unsafe.Sizeof(vnode[struct{}]{})},
		{"float32", unsafe.Sizeof(page[float32]{}), unsafe.Sizeof(vnode[float32]{})},
		{"uint64", unsafe.Sizeof(page[uint64]{}), unsafe.Sizeof(vnode[uint64]{})},
	} {
		if c.page != 704 || c.node != 56 {
			t.Errorf("V = %s: sizeof(page) = %d, sizeof(node) = %d, want 704 and 56", c.name, c.page, c.node)
		}
	}
}

// checkGraphIndex fails t when g's index is broken.
func checkGraphIndex[V ctree.Value](t *testing.T, what string, g GraphOf[V]) {
	t.Helper()
	if err := checkIndex(g.table(), g.cls, g.vt); err != nil {
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
	if g.vt.Size() != 2 {
		t.Fatalf("ids %d and %d sit in %d pages, want 2", a, b, g.vt.Size())
	}
	gc := g.DeleteEdgesGC(MakeUndirected([]Edge{{Src: a, Dst: b}}))
	checkGraphIndex(t, "gc", gc)
	if gc.NumVertices() != 0 || gc.Order() != 0 || gc.vt != nil {
		t.Fatalf("gc delete left %d vertices, order %d", gc.NumVertices(), gc.Order())
	}
	dv := g.DeleteVertices([]uint32{a})
	checkGraphIndex(t, "delete vertex", dv)
	if dv.NumVertices() != 1 || dv.HasVertex(a) || !dv.HasVertex(b) || dv.Degree(b) != 0 || dv.Order() != int(b)+1 || dv.vt.Size() != 1 {
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
// vertex per page (1 500 pages) so the descent and the build of an empty
// subtree both take their parallel step when Procs allows it.
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
		runBatchDifferential(t, vops, params(), pageEdgeSchedule())
	})
}

// TestPageBoundariesForked runs the page-edge differential with Procs
// raised, so its wide batches fork the descent and the build of an empty
// subtree on any box; under -race this covers the page callbacks running
// concurrently.
func TestPageBoundariesForked(t *testing.T) {
	defer func(p int) { parallel.Procs = p }(parallel.Procs)
	parallel.Procs = 4
	runBatchDifferential(t, vops, ctree.DefaultParams(), pageEdgeSchedule())
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
