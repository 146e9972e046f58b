package aspen

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/xhash"
)

// ApplyRuns is checked against the sequence it replaces: the same runs
// applied one by one through InsertEdges / DeleteEdges, from the same base.

// applySequentially is the reference: one call per run.
func applySequentially[V ctree.Value](g GraphOf[V], runs []Run[V]) GraphOf[V] {
	for _, r := range runs {
		if r.Del {
			g = g.DeleteEdges(r.Edges)
		} else {
			g = g.InsertEdges(r.Edges)
		}
	}
	return g
}

// checkApplyRuns requires ApplyRuns to give the sequential graph — equal
// contents, vertex count, order and edge count, an intact vertex index — and
// the same DiffVersions records from base.
func checkApplyRuns[V ctree.Value](t *testing.T, base GraphOf[V], runs []Run[V]) GraphOf[V] {
	t.Helper()
	want := applySequentially(base, runs)
	got := base.ApplyRuns(runs)
	if !got.Equal(want) || got.NumVertices() != want.NumVertices() || got.Order() != want.Order() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("ApplyRuns: %d vertices / order %d / %d edges (equal %v), sequential %d / %d / %d",
			got.NumVertices(), got.Order(), got.NumEdges(), got.Equal(want), want.NumVertices(), want.Order(), want.NumEdges())
	}
	ops := got.table()
	if err := checkIndex(ops, got.cls, got.vt); err != nil {
		t.Fatal(err)
	}
	gd, wd := realDeltas(deltasOf(ops, got.cls, base.vt, got.vt)), realDeltas(deltasOf(ops, got.cls, base.vt, want.vt))
	if !slices.EqualFunc(gd, wd, func(a, b deltaImage[V]) bool {
		return a.kind == b.kind && a.old.equal(b.old) && a.new.equal(b.new)
	}) {
		t.Fatalf("DiffVersions from the base: %d deltas, sequential %d (or contents differ)", len(gd), len(wd))
	}
	return got
}

// realDeltas drops the DiffChanged records whose vertex kept its edges and
// payloads. The sequential lineage emits one for a vertex that one run
// changes and a later run changes back: the intermediate edge tree differs in
// representation, so DiffVersions cannot prune it. The one pass never builds
// that tree.
func realDeltas[V ctree.Value](ds []deltaImage[V]) []deltaImage[V] {
	return slices.DeleteFunc(ds, func(d deltaImage[V]) bool { return d.kind == DiffChanged && d.old.equal(d.new) })
}

// runSchedule draws a commit of 1–8 runs of random kind over a pool of
// edges: edges of the base, fresh ones reaching past the base's ids (new
// sources and destination-only endpoints), some symmetrised, with repeats
// inside and across runs so that inserts, deletes and re-inserts of one edge
// meet in one commit.
func runSchedule[V ctree.Value](r *xhash.RNG, base []EdgeOf[V], n, size int, val func() V) []Run[V] {
	pool := append([]EdgeOf[V](nil), base...)
	for _, e := range randomEdges(r, len(base)/4+size, n+n/2) {
		pool = append(pool, EdgeOf[V]{Val: val(), Src: e.Src, Dst: e.Dst})
	}
	runs := make([]Run[V], 1+r.Intn(8))
	for i := range runs {
		runs[i].Del = r.Intn(2) == 1
		k := 1 + r.Intn(size)
		for len(runs[i].Edges) < k {
			e := pool[r.Intn(len(pool))]
			e.Val = val()
			runs[i].Edges = append(runs[i].Edges, e)
			if r.Intn(2) == 0 {
				runs[i].Edges = append(runs[i].Edges, EdgeOf[V]{Val: e.Val, Src: e.Dst, Dst: e.Src})
			}
		}
	}
	return runs
}

// applyRunsCases drives one payload type through the named cases and the
// seeded schedules.
func applyRunsCases[V ctree.Value](t *testing.T, val func(r *xhash.RNG) V) {
	e := func(s, d uint32, v V) EdgeOf[V] { return EdgeOf[V]{Val: v, Src: s, Dst: d} }
	ins := func(es ...EdgeOf[V]) Run[V] { return Run[V]{Edges: es} }
	del := func(es ...EdgeOf[V]) Run[V] { return Run[V]{Del: true, Edges: es} }
	r := xhash.NewRNG(7)
	v1, v2 := val(r), val(r)
	small := NewGraphOf[V](params()).InsertEdges([]EdgeOf[V]{e(1, 2, v1), e(2, 1, v1), e(3, 4, v2), e(4, 3, v2)})

	t.Run("insert-then-delete", func(t *testing.T) {
		g := checkApplyRuns(t, small, []Run[V]{ins(e(10, 20, v1)), del(e(10, 20, v2))})
		if !g.HasVertex(10) || !g.HasVertex(20) || g.HasEdge(10, 20) {
			t.Fatal("an edge inserted then deleted in one commit must leave both endpoints, without the edge")
		}
	})
	t.Run("insert-delete-insert", func(t *testing.T) {
		g := checkApplyRuns(t, small, []Run[V]{ins(e(1, 9, v1)), del(e(1, 9, v1)), ins(e(1, 9, v2))})
		if w, ok := g.Weight(1, 9); !ok || w != v2 {
			t.Fatal("the last insert's payload must win")
		}
	})
	t.Run("delete-absent-source", func(t *testing.T) {
		g := checkApplyRuns(t, small, []Run[V]{ins(e(1, 3, v1)), del(e(50, 1, v1), e(51, 52, v1))})
		if g.HasVertex(50) || g.HasVertex(51) || g.HasVertex(52) {
			t.Fatal("a delete created a vertex")
		}
	})
	t.Run("delete-only-source-is-insert-destination", func(t *testing.T) {
		g := checkApplyRuns(t, small, []Run[V]{ins(e(1, 60, v1)), del(e(60, 2, v1)), ins(e(3, 61, v2)), del(e(3, 61, v2), e(61, 4, v2))})
		if !g.HasVertex(60) || !g.HasVertex(61) {
			t.Fatal("an insert destination that only deletes as a source must exist")
		}
	})
	t.Run("delete-gc-empties-vertex", func(t *testing.T) {
		// Vertex 3's only edges go away in both directions, so DeleteEdgesGC
		// (a one-run call of the same core) drops 3 and 4; 1 keeps its edge.
		b := []EdgeOf[V]{e(3, 4, v1), e(4, 3, v1), e(1, 7, v1)}
		got := small.DeleteEdgesGC(b)
		want := small.DeleteEdges(b).DeleteVertices([]uint32{3, 4})
		if !got.Equal(want) || got.NumVertices() != 2 || got.Order() != want.Order() {
			t.Fatalf("DeleteEdgesGC: %d vertices, want %d", got.NumVertices(), want.NumVertices())
		}
	})

	for _, n := range []int{30, 400} {
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				r := xhash.NewRNG(seed*1000 + uint64(n))
				v := func() V { return val(r) }
				var base []EdgeOf[V]
				for _, ed := range MakeUndirected(randomEdges(r, 3*n, n)) {
					base = append(base, EdgeOf[V]{Val: v(), Src: ed.Src, Dst: ed.Dst})
				}
				g := NewGraphOf[V](params()).InsertEdges(base)
				checkApplyRuns(t, g, runSchedule(r, base, n, n, v))
			})
		}
	}
}

func TestApplyRunsMatchesSequential(t *testing.T) {
	t.Run("id-only", func(t *testing.T) { applyRunsCases(t, func(*xhash.RNG) struct{} { return struct{}{} }) })
	t.Run("float32", func(t *testing.T) {
		applyRunsCases(t, func(r *xhash.RNG) float32 { return float32(r.Intn(1000)) / 8 })
	})
	t.Run("uint64", func(t *testing.T) { applyRunsCases(t, func(r *xhash.RNG) uint64 { return r.Next() }) })
}

// TestApplyRunsForkedMatchesSequential raises Procs so the commit's descent
// forks — both halves of the batch at or above the fork size, and a run of
// fresh ids past the graph's largest wide enough to fork the build of an
// empty subtree; under -race this covers the upsert callbacks running
// concurrently.
func TestApplyRunsForkedMatchesSequential(t *testing.T) {
	defer func(p int) { parallel.Procs = p }(parallel.Procs)
	parallel.Procs = 4
	const n = 4000
	r := xhash.NewRNG(11)
	base := MakeUndirected(randomEdges(r, 4*n, n))
	g := NewGraph(ctree.DefaultParams()).InsertEdges(base)
	var fresh []Edge
	for i := 0; i < 3*n; i++ {
		fresh = append(fresh, Edge{Src: uint32(2*n + i), Dst: uint32(r.Intn(n))})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		runs := runSchedule(xhash.NewRNG(seed), base, n, 2*n, func() struct{} { return struct{}{} })
		runs = append(runs, Run[struct{}]{Edges: fresh}, Run[struct{}]{Del: true, Edges: base[:n]})
		checkApplyRuns(t, g, runs)
	}
}
