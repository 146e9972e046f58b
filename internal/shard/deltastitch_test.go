package shard

import (
	"fmt"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/rmat"
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
// fast path: after a batch confined to shard 0, the next stitch off the
// previous one must keep shard 1's per-shard view verbatim — the same
// pointer — and refresh only shard 0's.
func TestDeltaStitchPointerIdentity(t *testing.T) {
	part := NewRangePartitioner(2, 1<<8)
	r := newRouted[struct{}](part)
	single := aspen.NewGraph(testParams())

	apply := func(edges []aspen.Edge) {
		single = single.InsertEdges(edges)
		r.apply(false, edges)
	}

	// Seed both shards, stitch once in full.
	gen := rmat.NewGenerator(8, 77)
	apply(aspen.MakeUndirected(gen.Edges(0, 1_200)))
	before := stitchedViews(t, r.stitch())
	kept := before[1]

	// A batch whose endpoints all live in shard 0's range [0, 128).
	batch := aspen.MakeUndirected([]aspen.Edge{{Src: 3, Dst: 90}, {Src: 17, Dst: 44}, {Src: 100, Dst: 101}})
	apply(batch)

	flat := r.stitch()
	after := stitchedViews(t, flat)
	if after[1] != kept {
		t.Fatal("unmoved shard 1's view was rebuilt instead of reused (pointer differs)")
	}
	if after[0] == before[0] {
		t.Fatal("moved shard 0's view was not refreshed")
	}
	checkStructure(t, single, flat)
}

// TestDeltaStitchDifferential chains delta stitches down schedules that
// always leave one shard untouched, for both partitioner families, checking
// every stitched view against a single-graph ground truth and asserting
// pointer reuse for the shard each step leaves untouched.
func TestDeltaStitchDifferential(t *testing.T) {
	for _, part := range []Partitioner{
		NewRangePartitioner(3, 1<<9),
		NewHashPartitioner(3),
	} {
		t.Run(fmt.Sprintf("%T-%d", part, part.Shards()), func(t *testing.T) {
			r := newRouted[struct{}](part)
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
				if del {
					single = single.DeleteEdges(edges)
				} else {
					single = single.InsertEdges(edges)
				}
				r.apply(del, edges)

				flat := r.stitch()
				views := stitchedViews(t, flat)
				checkStructure(t, single, flat)
				if prevViews != nil && views[quiet] != prevViews[quiet] {
					t.Fatalf("step %d: shard %d did not move but its view was rebuilt", step, quiet)
				}
				prevViews = append([]ligra.Graph(nil), views...)
			}
		})
	}
}

// TestDeltaStitchWeighted covers the weighted wrapper: a delta-stitched
// weighted view must still satisfy ligra.FlatWeightedGraph and
// reuse unmoved shards' views.
func TestDeltaStitchWeighted(t *testing.T) {
	part := NewRangePartitioner(2, 1<<8)
	r := newRouted[float32](part)
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
	r.apply(false, mkw(gen.Edges(0, 800), 2))
	kept := stitchedViews(t, r.stitch())[1]

	r.apply(false, mkw([]aspen.Edge{{Src: 9, Dst: 120}}, 5))
	flat := r.stitch()
	if _, ok := flat.(ligra.FlatWeightedGraph); !ok {
		t.Fatalf("delta-stitched weighted view is %T, want ligra.FlatWeightedGraph", flat)
	}
	if stitchedViews(t, flat)[1] != kept {
		t.Fatal("unmoved weighted shard's view was rebuilt")
	}
}
