package shard

import (
	"fmt"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/stream"
)

// stitchedViews returns the per-shard view slice behind a stitched flat
// view (tests run in-package, so the internals are reachable).
func stitchedViews(t *testing.T, g ligra.Graph) []ligra.Graph {
	t.Helper()
	fv := flatViewOf(g)
	if fv == nil {
		t.Fatalf("not a stitched flat view: %T", g)
	}
	return fv.views
}

// TestDeltaStitchPointerIdentity is the acceptance check for the stitched
// fast path: after a commit confined to shard 0, the next stitched view
// must reuse shard 1's per-shard view verbatim — the same pointer, no
// engine round-trip — and refresh only shard 0's.
func TestDeltaStitchPointerIdentity(t *testing.T) {
	part := NewRangePartitioner(2, 1<<8)
	c := NewGraphCluster(part, testParams(), stream.Options{})
	defer c.Close()
	single := aspen.NewGraph(testParams())

	apply := func(edges []aspen.Edge) {
		single = single.InsertEdges(edges)
		if _, err := c.Insert(edges); err != nil {
			t.Fatal(err)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
	}

	// Seed both shards, stitch once in full.
	gen := rmat.NewGenerator(8, 77)
	apply(aspen.MakeUndirected(gen.Edges(0, 1_200)))
	tx1 := c.Begin()
	before := stitchedViews(t, tx1.Flat())
	kept := before[1]
	tx1.Close()
	if st := c.Stats(); st.StitchBuilds != 1 || st.StitchPatches != 0 {
		t.Fatalf("after first stitch: builds=%d patches=%d, want 1/0", st.StitchBuilds, st.StitchPatches)
	}

	// A batch whose endpoints all live in shard 0's range [0, 128).
	batch := aspen.MakeUndirected([]aspen.Edge{{Src: 3, Dst: 90}, {Src: 17, Dst: 44}, {Src: 100, Dst: 101}})
	apply(batch)

	tx2 := c.Begin()
	defer tx2.Close()
	flat := tx2.Flat()
	after := stitchedViews(t, flat)
	if after[1] != kept {
		t.Fatal("unmoved shard 1's view was rebuilt instead of reused (pointer differs)")
	}
	if after[0] == before[0] {
		t.Fatal("moved shard 0's view was not refreshed")
	}
	checkStructure(t, single, flat)
	st := c.Stats()
	if st.StitchBuilds != 1 || st.StitchPatches != 1 {
		t.Fatalf("builds=%d patches=%d, want exactly one full stitch and one delta", st.StitchBuilds, st.StitchPatches)
	}
	// Shard 1's engine built its flat view once, for the original version.
	if fb := st.PerShard[1].FlatBuilds; fb != 1 {
		t.Fatalf("shard 1 flat builds = %d, want 1 (delta stitch must not re-ask)", fb)
	}
}

// TestDeltaStitchDifferential chains delta stitches down schedules that
// always leave one shard untouched, for both partitioner families, checking
// every stitched view against a single-engine ground truth and asserting
// pointer reuse for every unmoved shard at every step.
func TestDeltaStitchDifferential(t *testing.T) {
	for _, part := range []Partitioner{
		NewRangePartitioner(3, 1<<9),
		NewHashPartitioner(3),
	} {
		t.Run(fmt.Sprintf("%T-%d", part, part.Shards()), func(t *testing.T) {
			c := NewGraphCluster(part, testParams(), stream.Options{})
			defer c.Close()
			single := aspen.NewGraph(testParams())
			gen := rmat.NewGenerator(9, 101)

			// avoid drops edges touching shard s, so a batch never moves it.
			avoid := func(edges []aspen.Edge, s int) []aspen.Edge {
				var out []aspen.Edge
				for _, e := range edges {
					if part.Owner(e.Src) != s && part.Owner(e.Dst) != s {
						out = append(out, e)
					}
				}
				return out
			}

			var history [][]aspen.Edge
			var pos uint64
			prevStamps := make([]uint64, part.Shards())
			var prevViews []ligra.Graph
			for step := 0; step < 12; step++ {
				quiet := step % part.Shards()
				var edges []aspen.Edge
				del := step%4 == 3 && len(history) > 1
				if del {
					edges = avoid(history[0], quiet)
					history = history[1:]
				} else {
					edges = avoid(aspen.MakeUndirected(gen.Edges(pos, pos+350)), quiet)
					pos += 350
					history = append(history, edges)
				}
				var err error
				if del {
					single = single.DeleteEdges(edges)
					_, err = c.Delete(edges)
				} else {
					single = single.InsertEdges(edges)
					_, err = c.Insert(edges)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Barrier(); err != nil {
					t.Fatal(err)
				}

				tx := c.Begin()
				flat := tx.Flat()
				views := stitchedViews(t, flat)
				stamps := append([]uint64(nil), tx.Stamps()...)
				checkStructure(t, single, flat)
				if prevViews != nil {
					for s := range stamps {
						if stamps[s] == prevStamps[s] && views[s] != prevViews[s] {
							t.Fatalf("step %d: shard %d did not move but its view was rebuilt", step, s)
						}
					}
				}
				prevViews = append([]ligra.Graph(nil), views...)
				prevStamps = stamps
				tx.Close()
			}
			st := c.Stats()
			if st.StitchPatches == 0 {
				t.Fatal("schedule never took the delta-stitch path")
			}
			if st.StitchBuilds == 0 {
				t.Fatal("first stitch should have been a full build")
			}
		})
	}
}

// TestDeltaStitchWeighted covers the weighted wrapper: a delta-stitched
// weighted cluster view must still satisfy ligra.FlatWeightedGraph and
// reuse unmoved shards' views.
func TestDeltaStitchWeighted(t *testing.T) {
	part := NewRangePartitioner(2, 1<<8)
	c := NewWeightedCluster(part, testParams(), stream.Options{})
	defer c.Close()
	mkw := func(es []aspen.Edge, w float32) []aspen.WeightedEdge {
		out := make([]aspen.WeightedEdge, 0, 2*len(es))
		for _, e := range es {
			out = append(out,
				aspen.WeightedEdge{Src: e.Src, Dst: e.Dst, Val: w},
				aspen.WeightedEdge{Src: e.Dst, Dst: e.Src, Val: w})
		}
		return out
	}
	gen := rmat.NewGenerator(8, 55)
	if _, err := c.Insert(mkw(gen.Edges(0, 800), 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	tx1 := c.Begin()
	kept := stitchedViews(t, tx1.Flat())[1]
	tx1.Close()

	if _, err := c.Insert(mkw([]aspen.Edge{{Src: 9, Dst: 120}}, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	tx2 := c.Begin()
	defer tx2.Close()
	flat := tx2.Flat()
	if _, ok := flat.(ligra.FlatWeightedGraph); !ok {
		t.Fatalf("delta-stitched weighted view is %T, want ligra.FlatWeightedGraph", flat)
	}
	if stitchedViews(t, flat)[1] != kept {
		t.Fatal("unmoved weighted shard's view was rebuilt")
	}
	if st := c.Stats(); st.StitchPatches != 1 {
		t.Fatalf("stitch patches = %d, want 1", st.StitchPatches)
	}
}
