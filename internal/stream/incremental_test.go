package stream

import (
	"testing"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rmat"
)

// sameView requires two ligra.Graph views to agree on every observable the
// kernels consume: header, per-vertex degree, and neighbor enumeration.
func sameView(t *testing.T, a, b ligra.Graph, ctx string) {
	t.Helper()
	if a.Order() != b.Order() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: header mismatch: (%d, %d) vs (%d, %d)",
			ctx, a.Order(), a.NumEdges(), b.Order(), b.NumEdges())
	}
	for u := uint32(0); int(u) < a.Order(); u++ {
		if a.Degree(u) != b.Degree(u) {
			t.Fatalf("%s: degree mismatch at %d: %d vs %d", ctx, u, a.Degree(u), b.Degree(u))
		}
		var xs, ys []uint32
		a.ForEachNeighbor(u, func(v uint32) bool { xs = append(xs, v); return true })
		b.ForEachNeighbor(u, func(v uint32) bool { ys = append(ys, v); return true })
		if len(xs) != len(ys) {
			t.Fatalf("%s: neighbor count mismatch at %d", ctx, u)
		}
		for i := range xs {
			if xs[i] != ys[i] {
				t.Fatalf("%s: neighbor mismatch at %d: %d vs %d", ctx, u, xs[i], ys[i])
			}
		}
	}
}

// TestPatchFlatEngineDifferential drives an Options.PatchFlat engine down a
// delete-heavy schedule, flushing after every batch, and checks the patched
// flat view against the pinned tree snapshot each version — plus the
// counter contract: exactly one full build (the first materialization),
// everything after it an O(batch) patch.
func TestPatchFlatEngineDifferential(t *testing.T) {
	gen := rmat.NewGenerator(10, 31)
	mk := func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }
	e := NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()).InsertEdges(mk(0, 3_000)),
		Options{PatchFlat: true, PrebuildFlat: true})
	defer e.Close()

	next := UpdateScheduleMix(3_000, 250, 2, mk)
	for i := uint64(0); i < 16; i++ {
		del, edges := next(i)
		var err error
		if del {
			_, err = e.Delete(edges)
		} else {
			_, err = e.Insert(edges)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		fg := tx.Flat()
		if _, ok := fg.(ligra.FlatGraph); !ok {
			t.Fatal("patched Flat view should still satisfy ligra.FlatGraph")
		}
		sameView(t, fg, tx.Graph(), "patched view vs tree snapshot")
		tx.Close()
	}

	st := e.Stats()
	if st.FlatBuilds != 1 {
		t.Fatalf("flat builds = %d, want exactly 1 (only the first materialization)", st.FlatBuilds)
	}
	if st.FlatPatches != st.Commits-1 {
		t.Fatalf("flat patches = %d, want commits-1 = %d", st.FlatPatches, st.Commits-1)
	}
	if st.FlatHits == 0 {
		t.Fatal("prebuilt patched views were never served from cache")
	}
}

// TestPatchFlatWeightedEngine checks the weighted engine's patcher wiring:
// weight re-inserts and deletes flow through PatchFlatWeightedSnapshot and
// the view keeps answering weighted queries correctly.
func TestPatchFlatWeightedEngine(t *testing.T) {
	gen := rmat.NewGenerator(9, 33)
	mkw := func(lo, hi uint64, scale float32) []aspen.WeightedEdge {
		var batch []aspen.WeightedEdge
		for i, ed := range gen.Edges(lo, hi) {
			w := scale + float32(i%5)
			batch = append(batch,
				aspen.WeightedEdge{Src: ed.Src, Dst: ed.Dst, Val: w},
				aspen.WeightedEdge{Src: ed.Dst, Dst: ed.Src, Val: w})
		}
		return batch
	}
	e := NewGraphEngine(aspen.NewWeightedGraph().InsertEdges(mkw(0, 1_500, 1)),
		Options{PatchFlat: true, PrebuildFlat: true})
	defer e.Close()

	steps := []struct {
		del    bool
		lo, hi uint64
		scale  float32
	}{
		{false, 1_500, 1_800, 1}, // fresh edges
		{false, 0, 300, 7},       // re-weight an existing range
		{true, 500, 800, 1},      // delete a replayed range
	}
	for _, s := range steps {
		var err error
		if s.del {
			_, err = e.Delete(mkw(s.lo, s.hi, s.scale))
		} else {
			_, err = e.Insert(mkw(s.lo, s.hi, s.scale))
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		fw, ok := tx.Flat().(ligra.FlatWeightedGraph)
		if !ok {
			t.Fatal("weighted patched view should satisfy ligra.FlatWeightedGraph")
		}
		sameView(t, fw, tx.Graph(), "weighted patched view")
		got := algos.SSSP(fw, 0)
		want := algos.SSSP(tx.Graph(), 0)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("SSSP[%d] = %v (patched flat) vs %v (tree)", v, got[v], want[v])
			}
		}
		tx.Close()
	}
	if st := e.Stats(); st.FlatBuilds != 1 || st.FlatPatches != st.Commits-1 {
		t.Fatalf("builds=%d patches=%d commits=%d, want 1 build and commits-1 patches",
			st.FlatBuilds, st.FlatPatches, st.Commits)
	}
}

// TestPatchFlatDurableEngine pins Options.PatchFlat on the durable
// constructor path: a recovered engine must wire the patcher exactly like
// the in-memory one (a regression here is silent — views stay correct,
// every commit just pays the O(n) rebuild again).
func TestPatchFlatDurableEngine(t *testing.T) {
	gen := rmat.NewGenerator(9, 37)
	mk := func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }
	e, err := RecoverGraphEngine(ctree.DefaultParams(),
		Options{PatchFlat: true, PrebuildFlat: true},
		Durability{Dir: t.TempDir(), Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := uint64(0); i < 4; i++ {
		if _, err := e.Insert(mk(i*200, (i+1)*200)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		sameView(t, tx.Flat(), tx.Graph(), "durable patched view")
		tx.Close()
	}
	st := e.Stats()
	if st.FlatBuilds != 1 || st.FlatPatches != st.Commits-1 {
		t.Fatalf("durable engine: builds=%d patches=%d commits=%d, want 1 build and commits-1 patches",
			st.FlatBuilds, st.FlatPatches, st.Commits)
	}
}

// TestIncrementalCCDifferential is the standing-connectivity oracle test:
// after every committed batch of a delete-heavy symmetric schedule, the
// incrementally maintained labeling must equal a from-scratch
// ConnectedComponents run on the same snapshot — and the query path must
// move no maintenance counters (no kernel runs to answer).
func TestIncrementalCCDifferential(t *testing.T) {
	gen := rmat.NewGenerator(9, 41)
	mk := func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }
	e := NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()).InsertEdges(mk(0, 1_200)), Options{})
	defer e.Close()
	cc := AttachGraphIncrementalCC(e)

	next := UpdateScheduleMix(1_200, 150, 2, mk)
	for i := uint64(0); i < 24; i++ {
		del, edges := next(i)
		var err error
		if del {
			_, err = e.Delete(edges)
		} else {
			_, err = e.Insert(edges)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		want := algos.ConnectedComponents(tx.Graph())
		n := tx.Graph().Order()
		tx.Close()
		before := cc.Stats()
		got := cc.Labels(n)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("batch %d (del=%v): label[%d] = %d, want %d", i, del, v, got[v], want[v])
			}
			if cc.Component(uint32(v)) != want[v] {
				t.Fatalf("batch %d: Component(%d) disagrees with Labels", i, v)
			}
		}
		if after := cc.Stats(); after != before {
			t.Fatalf("queries moved maintenance counters: %+v -> %+v", before, after)
		}
	}
	st := cc.Stats()
	if st.Unions == 0 || st.Recomputes == 0 || st.Reverified == 0 {
		t.Fatalf("schedule did not exercise both directions: %+v", st)
	}
}

// TestIncrementalCCCoalescedRuns covers the multi-run commit path: several
// batches (insert and delete interleaved) submitted without intermediate
// flushes may coalesce into one commit with multiple runs, which the
// OnCommit fold must apply in order against the final snapshot.
func TestIncrementalCCCoalescedRuns(t *testing.T) {
	gen := rmat.NewGenerator(9, 43)
	mk := func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) }
	e := NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()).InsertEdges(mk(0, 1_000)), Options{QueueCap: 64})
	defer e.Close()
	cc := AttachGraphIncrementalCC(e)

	next := UpdateScheduleMix(1_000, 120, 2, mk)
	for round := 0; round < 4; round++ {
		for i := uint64(0); i < 6; i++ {
			del, edges := next(uint64(round)*6 + i)
			var err error
			if del {
				_, err = e.Delete(edges)
			} else {
				_, err = e.Insert(edges)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		want := algos.ConnectedComponents(tx.Graph())
		n := tx.Graph().Order()
		tx.Close()
		got := cc.Labels(n)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("round %d: label[%d] = %d, want %d", round, v, got[v], want[v])
			}
		}
	}
}

// TestIncrementalCCWeighted smoke-tests the weighted attach: weight
// re-inserts must not disturb connectivity.
func TestIncrementalCCWeighted(t *testing.T) {
	var batch []aspen.WeightedEdge
	add := func(u, v uint32, w float32) {
		batch = append(batch, aspen.WeightedEdge{Src: u, Dst: v, Val: w},
			aspen.WeightedEdge{Src: v, Dst: u, Val: w})
	}
	add(1, 2, 1)
	add(2, 3, 1)
	add(10, 11, 1)
	e := NewGraphEngine(aspen.NewWeightedGraph().InsertEdges(batch), Options{})
	defer e.Close()
	cc := AttachGraphIncrementalCC(e)
	if cc.Component(3) != 1 || cc.Component(11) != 10 {
		t.Fatal("bootstrap labeling wrong")
	}
	// Re-weight 1-2 (no connectivity change), then bridge the components.
	reweight := []aspen.WeightedEdge{{Src: 1, Dst: 2, Val: 9}, {Src: 2, Dst: 1, Val: 9}}
	if _, err := e.Insert(reweight); err != nil {
		t.Fatal(err)
	}
	bridge := []aspen.WeightedEdge{{Src: 3, Dst: 10, Val: 1}, {Src: 10, Dst: 3, Val: 1}}
	if _, err := e.Insert(bridge); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if cc.Component(11) != 1 {
		t.Fatalf("Component(11) = %d after bridge, want 1", cc.Component(11))
	}
	// Cut the bridge again: the split must be recomputed.
	if _, err := e.Delete(bridge); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if cc.Component(11) != 10 {
		t.Fatalf("Component(11) = %d after cut, want 10", cc.Component(11))
	}
	if st := cc.Stats(); st.Recomputes == 0 {
		t.Fatal("bridge cut did not trigger a confined recompute")
	}
}
