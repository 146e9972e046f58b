package aspen

import (
	"testing"
	"time"

	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/xhash"
)

// TestFlatWeightedSnapshotMatchesGraph is the weighted analogue of
// TestFlatSnapshotMatchesGraph: the generic flat view must agree with the
// weighted graph on degrees, presence, neighbor order and weights.
func TestFlatWeightedSnapshotMatchesGraph(t *testing.T) {
	r := xhash.NewRNG(51)
	g := NewWeightedGraph().InsertEdges(randomWeightedBatch(r, 3000, 500))
	fs := BuildFlatWeightedSnapshot(g)
	if fs.Order() != g.Order() || fs.NumEdges() != g.NumEdges() {
		t.Fatal("flat weighted snapshot header mismatch")
	}
	degs := fs.Degrees()
	if len(degs) != g.Order() {
		t.Fatalf("Degrees length = %d, want %d", len(degs), g.Order())
	}
	for u := uint32(0); int(u) < g.Order(); u++ {
		if fs.Degree(u) != g.Degree(u) || int(degs[u]) != g.Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
		if fs.HasVertex(u) != g.HasVertex(u) {
			t.Fatalf("presence mismatch at %d", u)
		}
		type nbr struct {
			v uint32
			w float32
		}
		var a, b []nbr
		g.ForEachNeighborW(u, func(v uint32, w float32) bool { a = append(a, nbr{v, w}); return true })
		fs.ForEachNeighborW(u, func(v uint32, w float32) bool { b = append(b, nbr{v, w}); return true })
		if len(a) != len(b) {
			t.Fatalf("neighbor count mismatch at %d", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("weighted neighbor mismatch at %d: %v vs %v", u, a[i], b[i])
			}
		}
	}
	// Point lookups agree too.
	for u := uint32(0); int(u) < g.Order(); u += 13 {
		g.ForEachNeighborW(u, func(v uint32, w float32) bool {
			fw, ok := fs.Weight(u, v)
			if !ok || fw != w {
				t.Fatalf("Weight(%d,%d) = %v,%v, want %v", u, v, fw, ok, w)
			}
			return true
		})
	}
}

// TestFlatBuildParallelMatchesSerial pins the per-worker-range parallel
// build against a 1-worker build of the same snapshot.
func TestFlatBuildParallelMatchesSerial(t *testing.T) {
	r := xhash.NewRNG(52)
	g := NewGraph(params()).InsertEdges(randomEdges(r, 20_000, 3_000))
	par := BuildFlatSnapshot(g)
	old := parallel.Procs
	parallel.Procs = 1
	ser := BuildFlatSnapshot(g)
	parallel.Procs = old
	if par.Order() != ser.Order() {
		t.Fatal("order mismatch")
	}
	for u := uint32(0); int(u) < par.Order(); u++ {
		if par.Degree(u) != ser.Degree(u) || par.HasVertex(u) != ser.HasVertex(u) {
			t.Fatalf("parallel and serial flat builds disagree at %d", u)
		}
		pe, pok := par.EdgeTree(u)
		se, sok := ser.EdgeTree(u)
		if pok != sok || (pok && !pe.EqualRep(se)) {
			t.Fatalf("edge-tree handle mismatch at %d", u)
		}
	}
}

// TestFlatSnapshotTotality: the dense view must stay total on ids outside
// the id space — degree 0, no neighbors, no vertex — never panic (the
// satellite-(b) contract).
func TestFlatSnapshotTotality(t *testing.T) {
	r := xhash.NewRNG(53)
	g := NewGraph(params()).InsertEdges(randomEdges(r, 500, 100))
	fs := BuildFlatSnapshot(g)
	fw := BuildFlatWeightedSnapshot(NewWeightedGraph().InsertEdges(randomWeightedBatch(r, 500, 100)))
	for _, u := range []uint32{uint32(g.Order()), uint32(g.Order()) + 1, 1 << 30, ^uint32(0)} {
		if fs.Degree(u) != 0 || fw.Degree(u) != 0 {
			t.Fatalf("out-of-range degree(%d) != 0", u)
		}
		if fs.HasVertex(u) || fw.HasVertex(u) {
			t.Fatalf("out-of-range HasVertex(%d)", u)
		}
		fs.ForEachNeighbor(u, func(uint32) bool { t.Fatalf("neighbor yielded for %d", u); return false })
		fs.ForEachNeighborPar(u, func(uint32) { t.Errorf("parallel neighbor yielded for %d", u) })
		fw.ForEachNeighborW(u, func(uint32, float32) bool { t.Fatalf("weighted neighbor yielded for %d", u); return false })
		if _, ok := fs.EdgeTree(u); ok {
			t.Fatalf("out-of-range EdgeTree(%d) present", u)
		}
		if _, ok := fw.Weight(u, 0); ok {
			t.Fatalf("out-of-range Weight(%d) present", u)
		}
	}
}

// TestFlatSnapshotStaleness documents the §5.1 footgun: a flat view is tied
// to the immutable version it was built from. Updates produce new graphs;
// the old view keeps answering for the old version, and Current detects the
// divergence.
func TestFlatSnapshotStaleness(t *testing.T) {
	r := xhash.NewRNG(54)
	g := NewGraph(params()).InsertEdges(randomEdges(r, 1000, 200))
	fs := BuildFlatSnapshot(g)
	if !fs.Current(g) {
		t.Fatal("fresh view must be current for its snapshot")
	}
	fs.MustCurrent(g) // no-op in release builds, must not panic under aspendebug
	degBefore := fs.Degree(7)

	g2 := g.InsertEdges(MakeUndirected(randomEdges(r, 500, 200)))
	if fs.Current(g2) {
		t.Fatal("view must not report current for a newer version")
	}
	if !fs.Current(g) {
		t.Fatal("view must stay current for its own version after updates elsewhere")
	}
	if fs.Degree(7) != degBefore || fs.NumEdges() != g.NumEdges() {
		t.Fatal("view drifted: flat snapshots must be frozen at their version")
	}
	// The fresh version gets its own view.
	fs2 := BuildFlatSnapshot(g2)
	if !fs2.Current(g2) || fs2.Current(g) {
		t.Fatal("rebuilt view bound to the wrong version")
	}
	if flatDebug {
		// Under -tags aspendebug a stale use must panic.
		defer func() {
			if recover() == nil {
				t.Fatal("MustCurrent should panic on a stale view under aspendebug")
			}
		}()
		fs.MustCurrent(g2)
	}
}

// warmSum is what Warm(ids) must return: the first neighbor of every vertex
// the ids reach, by the public accessors.
func warmSum[V ctree.Value](fv *FlatView[V], ids []uint32) (sum uint32) {
	for _, u := range ids {
		if et, ok := fv.EdgeTree(u); ok {
			first, _ := et.First()
			sum += first
		}
	}
	return sum
}

// checkWarmTotal sweeps Warm over the whole id space and past it, in one
// call and id by id.
func checkWarmTotal[V ctree.Value](t *testing.T, what string, fv *FlatView[V]) {
	t.Helper()
	if fv.Warm(nil) != 0 || fv.Warm([]uint32{}) != 0 {
		t.Fatalf("%s: Warm of no ids is not 0", what)
	}
	// What lets Warm skip the presence test: a slot without a vertex holds
	// a tree without elements and zero heads.
	for pi, pg := range fv.pages {
		for s := 0; pg != nil && s < pageSize; s++ {
			if pg.deg[s] < 0 && (!fv.cls.Tree(pg.trees[s]).Empty() || pg.heads[s] != [2]uint32{}) {
				t.Fatalf("%s: absent slot %d holds a non-empty tree or heads", what, pi<<pageBits+s)
			}
		}
	}
	ids := []uint32{1 << 30, ^uint32(0)}
	for u := 0; u < fv.Order()+2*pageSize; u++ {
		ids = append(ids, uint32(u))
	}
	if got, want := fv.Warm(ids), warmSum(fv, ids); got != want || want == 0 {
		t.Fatalf("%s: Warm(all ids) = %d, want %d (non-zero)", what, got, want)
	}
	for _, u := range ids {
		if got, want := fv.Warm([]uint32{u}), warmSum(fv, []uint32{u}); got != want {
			t.Fatalf("%s: Warm(%d) = %d, want %d", what, u, got, want)
		}
	}
}

// TestFlatWarm: the Warm capability is total and loads exactly the first
// head id ForEachNeighbor starts from — on built views and on patched ones
// (aliased pages, nil pages where the id space grew), for ids past Order,
// absent vertices, vertices without edges, and a vertex whose first neighbor
// is a C-tree head, so that its prefix chunk is empty and the page's heads
// come from the head tree.
func TestFlatWarm(t *testing.T) {
	p := params()
	var head uint32
	for head = 300; ctree.Build(p, []uint32{head}).Stats().Nodes != 1; head++ {
	}
	const lone, headFirst, absent = 130, 140, 150
	r := xhash.NewRNG(55)
	g := NewGraph(p).InsertEdges(MakeUndirected(randomEdges(r, 600, 120)))
	g = g.InsertVertices([]uint32{lone}).InsertEdges([]Edge{{Src: headFirst, Dst: head}, {Src: headFirst, Dst: head + 1}})
	built := BuildFlatSnapshot(g)
	checkWarmTotal(t, "built", built)
	if !built.HasVertex(lone) || built.Degree(lone) != 0 || built.Warm([]uint32{lone}) != 0 {
		t.Fatal("a vertex without edges must warm nothing")
	}
	if built.HasVertex(absent) || built.Warm([]uint32{absent}) != 0 {
		t.Fatal("an absent vertex must warm nothing")
	}
	if got := built.Warm([]uint32{headFirst}); got != head {
		t.Fatalf("head-first vertex: Warm = %d, want its first neighbor %d", got, head)
	}

	// Grow the id space far past the built view, touch a few old vertices
	// and remove one: the patched view keeps most of its predecessor's pages,
	// points at a few new ones, and has nil pages over the untouched part of
	// the new range.
	far := uint32(built.Order() + 40*pageSize)
	g2 := g.InsertEdges(MakeUndirected([]Edge{{Src: far, Dst: far + 1}, {Src: 3, Dst: 99}})).DeleteVertices([]uint32{7})
	patched := PatchFlatSnapshot(built, g2)
	checkWarmTotal(t, "patched", patched)
	gap := uint32(built.Order() + 20*pageSize)
	if pg, _ := patched.page(gap); pg != nil {
		t.Fatalf("expected a nil page at id %d of the patched view", gap)
	}
	if patched.Warm([]uint32{gap, 7}) != 0 {
		t.Fatal("nil pages and removed vertices must warm nothing")
	}
	var all []uint32
	for u := 0; u < patched.Order(); u++ {
		all = append(all, uint32(u))
	}
	if got, want := patched.Warm(all), BuildFlatSnapshot(g2).Warm(all); got != want {
		t.Fatalf("patched and rebuilt views of one version warm differently: %d vs %d", got, want)
	}

	wg := NewWeightedGraph().InsertEdges(randomWeightedBatch(r, 800, 150))
	fw := BuildFlatWeightedSnapshot(wg)
	checkWarmTotal(t, "weighted built", fw)
	wp := PatchFlatWeightedSnapshot(fw, wg.InsertEdges(randomWeightedBatch(r, 50, 400)))
	checkWarmTotal(t, "weighted patched", wp)
}

// TestFlatWarmWaitsOnGate: Warm waits while the view's gate is held, a
// patched view waits on its predecessor's gate, and a view without a gate
// never waits.
func TestFlatWarmWaitsOnGate(t *testing.T) {
	r := xhash.NewRNG(57)
	g := NewGraph(params()).InsertEdges(MakeUndirected(randomEdges(r, 600, 120)))
	var gate parallel.Gate
	built := BuildFlatSnapshot(g)
	built.SetGate(&gate)
	g2 := g.InsertEdges(MakeUndirected([]Edge{{Src: 3, Dst: 99}}))
	patched := PatchFlatSnapshot(built, g2)
	ids := []uint32{1, 2, 3}
	want := BuildFlatSnapshot(g2).Warm(ids)

	if !gate.Hold() {
		t.Fatal("hold declined")
	}
	BuildFlatSnapshot(g2).Warm(ids) // no gate: does not wait
	done := make(chan uint32, 2)
	go func() { done <- built.Warm(ids) }()
	go func() { done <- patched.Warm(ids) }()
	select {
	case <-done:
		t.Fatal("Warm returned while its gate was held")
	case <-time.After(20 * time.Millisecond):
	}
	gate.Release()
	for range 2 {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Warm still waiting after Release")
		}
	}
	if got := patched.Warm(ids); got != want {
		t.Fatalf("patched Warm = %d, want %d", got, want)
	}
}
